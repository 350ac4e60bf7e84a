"""Embedding lists: how patterns touch the database.

An Embedding is one link of a chain: the image of a code's last edge plus a
reference to the chain for the code's prefix. A pattern's embedding list has
one chain per subgraph isomorphism of the pattern, so ``len`` is the
occurrence count I(g, D) and distinct graph ids give the support.

Edge images are the directed half-edge tuples ``(frm, to, eid, elb)`` of the
owning graph, oriented the way the code tuple at that position reads, which
is what makes vertex maps recoverable from a chain.
"""

from __future__ import annotations

from typing import Sequence

from .dfscode import DFSCode, rightmost_path
from .graphs import GraphDatabase


class Embedding:
    """One chain link: graph id, oriented image of the last code edge, and
    the parent chain (None for 1-edge codes)."""

    __slots__ = ("gid", "edge", "prev")

    def __init__(self, gid: int, edge: tuple[int, int, int, int], prev: "Embedding | None"):
        self.gid = gid
        self.edge = edge
        self.prev = prev

    def __repr__(self) -> str:
        return f"Embedding(gid={self.gid}, edge={self.edge})"


def chain_edges(emb: Embedding, length: int) -> list[tuple[int, int, int, int]]:
    """Materialize a chain into its edge images in code order."""
    edges = [None] * length
    node = emb
    for k in range(length - 1, -1, -1):
        edges[k] = node.edge
        node = node.prev
    return edges


def vertex_map(code: Sequence[Sequence[int]], emb: Embedding) -> list[int]:
    """dfs id -> graph vertex for one chain."""
    edges = chain_edges(emb, len(code))
    n = max(max(t[0], t[1]) for t in code) + 1
    vmap = [0] * n
    for t, e in zip(code, edges):
        vmap[t[0]] = e[0]
        vmap[t[1]] = e[1]
    return vmap


def support(projected: list) -> int:
    """Number of distinct graphs the chains live in."""
    return len({e.gid for e in projected})


def occurrence(projected: list) -> int:
    """Number of subgraph isomorphisms, one per chain."""
    return len(projected)


def containing_graphs(projected: list) -> list[int]:
    return sorted({e.gid for e in projected})


def equivalent_occurrence(parent_projected: list, child_projected: list) -> bool:
    """True iff every parent chain extends into the child: L = I.

    L counts the distinct parent chains referenced by the child's chains,
    i.e. the parent isomorphisms extendable under the canonical inclusion
    of the parent pattern in the child.
    """
    covered = {id(e.prev) for e in child_projected}
    return len(covered) == len(parent_projected)


def frequent_single_edges(db: GraphDatabase, min_freq: int) -> list[tuple[DFSCode, list]]:
    """All frequent 1-edge codes with their embeddings, sorted ascending.

    One pass buckets the half-edges by label triple; buckets found in fewer
    than ``min_freq`` graphs are dropped.

    An edge with distinct endpoint labels yields one chain in its canonical
    orientation; equal endpoint labels yield both orientations, matching the
    two isomorphisms of the pattern onto that edge.
    """
    buckets: dict[tuple, list] = {}
    for g in db.graphs:
        vl = g.vlabels
        gid = g.gid
        for u, lu in enumerate(vl):
            for e in g.adj[u]:
                lv = vl[e[1]]
                if lu <= lv:
                    trip = (lu, e[3], lv)
                    bucket = buckets.get(trip)
                    if bucket is None:
                        bucket = buckets[trip] = []
                    bucket.append(Embedding(gid, e, None))
    return [
        (DFSCode([(0, 1) + trip]), buckets[trip])
        for trip in sorted(buckets)
        if support(buckets[trip]) >= min_freq
    ]


def project_code(code: Sequence[Sequence[int]], db: GraphDatabase) -> list:
    """All embedding chains of a code, rebuilt from scratch.

    Complete for minimum codes. The miners grow embeddings from the parent's
    instead; this serves callers that hold only a code, growing the chains
    one tuple at a time through the unrestricted extension scan.
    """
    _, _, flbl, elbl, tlbl = code[0]
    projected = [
        Embedding(g.gid, e, None)
        for g in db.graphs
        for v, lbl in enumerate(g.vlabels)
        if lbl == flbl
        for e in g.adj[v]
        if e[3] == elbl and g.vlabels[e[1]] == tlbl
    ]
    for k in range(1, len(code)):
        exts = rightmost_extensions(code[:k], projected, db, restricted=False)
        projected = exts.get(tuple(code[k]), [])
    return projected


def rightmost_extensions(
    code: Sequence[Sequence[int]],
    projected: list,
    db: GraphDatabase,
    restricted: bool = True,
) -> dict[tuple, list]:
    """All right-most extension tuples with complete embedding buckets.

    Backward edges grow from the right-most vertex to right-most-path
    vertices (never the direct parent); forward edges grow from right-most
    path vertices and introduce the next dfs id. With ``restricted`` the
    tuple-level growth filters of canonical search are applied, dropping
    extension tuples that can never head a minimal code; each surviving
    bucket holds every embedding either way. Keys are plain 5-tuples.
    """
    graphs = db.graphs
    m = len(code)
    positions = rightmost_path(code).positions
    rm_pos = positions[-1]
    maxtoc = code[rm_pos][1]
    rmlbl = code[rm_pos][4]
    min_vlb = code[0][2]
    back = [
        (pos, code[pos][0], code[pos][3], code[pos][4] <= rmlbl, code[pos][2])
        for pos in positions[:-1]
    ]
    fwd = [
        (pos, code[pos][0], code[pos][3], code[pos][4], code[pos][2])
        for pos in reversed(positions)
    ]
    newv = maxtoc + 1
    buckets: dict[tuple, list] = {}

    for emb in projected:
        gid = emb.gid
        g = graphs[gid]
        adj = g.adj
        vl = g.vlabels
        edges = chain_edges(emb, m)
        vused = set()
        eused = set()
        for e in edges:
            vused.add(e[0])
            vused.add(e[1])
            eused.add(e[2])
        rm_img = edges[rm_pos][1]

        for pos, tgt, e1lbl, alloweq, tgtlbl in back:
            w_img = edges[pos][0]
            for e in adj[rm_img]:
                if e[1] == w_img and e[2] not in eused:
                    if not restricted or e[3] > e1lbl or (e[3] == e1lbl and alloweq):
                        t = (maxtoc, tgt, rmlbl, e[3], tgtlbl)
                        bucket = buckets.get(t)
                        if bucket is None:
                            bucket = buckets[t] = []
                        bucket.append(Embedding(gid, e, emb))
                    break

        for e in adj[rm_img]:
            to = e[1]
            if to in vused:
                continue
            nlbl = vl[to]
            if restricted and nlbl < min_vlb:
                continue
            t = (maxtoc, newv, rmlbl, e[3], nlbl)
            bucket = buckets.get(t)
            if bucket is None:
                bucket = buckets[t] = []
            bucket.append(Embedding(gid, e, emb))

        for pos, frm_dfs, e1lbl, e1tolbl, frmlbl in fwd:
            u_img = edges[pos][0]
            for e in adj[u_img]:
                to = e[1]
                if to in vused:
                    continue
                nlbl = vl[to]
                if restricted and (
                    nlbl < min_vlb
                    or e[3] < e1lbl
                    or (e[3] == e1lbl and nlbl < e1tolbl)
                ):
                    continue
                t = (frm_dfs, newv, frmlbl, e[3], nlbl)
                bucket = buckets.get(t)
                if bucket is None:
                    bucket = buckets[t] = []
                bucket.append(Embedding(gid, e, emb))

    return buckets


def child_sort_key(t: Sequence[int]):
    """Sort key realizing tuple_less among extensions of one code."""
    if t[0] > t[1]:
        return (0, t[1], t[3], 0, 0)
    return (1, -t[0], t[2], t[3], t[4])
