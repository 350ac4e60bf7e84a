"""Embedding lists: how patterns touch the database.

An Embedding is one link of a chain: the image of a code's last edge plus a
reference to the chain for the code's prefix. A pattern's embedding list has
one chain per subgraph isomorphism of the pattern, so ``len`` is the
occurrence count I(g, D) and distinct graph ids give the support.

Edge images are the directed half-edge tuples ``(frm, to, eid, elb)`` of the
owning graph, oriented the way the code tuple at that position reads, which
is what makes vertex maps recoverable from a chain.

Every chain ends at its graph's empty chain, ``Embedding(gid, None, None)``,
the parent of each 1-edge hit. Neither the seeding nor the extension scan
builds a link: each files its hits in the tuple's Bucket as a parent chain
and a half-edge, and ``Bucket.link`` builds the child's chains only for the
children the search visits. Most buckets are infrequent or head a code
that is not minimal, and are never linked.
"""

from __future__ import annotations

from typing import Sequence

from .dfscode import DFSCode, rightmost_path
from .graphs import GraphDatabase


class Embedding:
    """One chain link: graph id, oriented image of the last code edge, and
    the parent chain. A graph's empty chain, the parent of its 1-edge
    chains, has neither edge nor parent."""

    __slots__ = ("gid", "edge", "prev")

    def __init__(self, gid: int, edge: tuple[int, int, int, int], prev: "Embedding | None"):
        self.gid = gid
        self.edge = edge
        self.prev = prev

    def __repr__(self) -> str:
        return f"Embedding(gid={self.gid}, edge={self.edge})"


class Bucket:
    """The hits of one code tuple, not yet linked: per hit the parent
    chain in ``prevs`` (a graph's empty chain for a 1-edge code) and the
    oriented half-edge in ``edges``.

    ``len`` is the number of hits, the occurrence count the linked chains
    would have.
    """

    __slots__ = ("prevs", "edges")

    def __init__(self):
        self.prevs: list[Embedding] = []
        self.edges: list[tuple[int, int, int, int]] = []

    def __len__(self) -> int:
        return len(self.prevs)

    def support(self) -> int:
        """Number of distinct graphs the hits lie in."""
        return len({p.gid for p in self.prevs})

    def link(self) -> list[Embedding]:
        """The child's embedding list: one chain link per hit, in hit order."""
        return [Embedding(p.gid, e, p) for p, e in zip(self.prevs, self.edges)]


def vertex_maps(code: Sequence[Sequence[int]], chains: list) -> list[tuple[int, ...]]:
    """dfs id -> graph vertex, one tuple per chain of a DFS code."""
    return list(_vertex_maps(code, chains))


def _vertex_maps(code: Sequence[Sequence[int]], chains):
    """Read each chain in one backward walk.

    In a DFS code vertex 0 and 1 come from the first tuple and every later
    vertex from the forward tuple that introduces it, so a per-code plan
    (the dfs id each position introduces, last position first, -1 for
    backward tuples) says which link holds which image. Maps are yielded
    one at a time so the extension scan never holds all of them.
    """
    vmap = [0] * (max(max(t[0], t[1]) for t in code) + 1)
    plan = [t[1] if t[0] < t[1] else -1 for t in code[:0:-1]]
    frm0, to0 = code[0][0], code[0][1]
    for c in chains:
        for v in plan:
            if v >= 0:
                vmap[v] = c.edge[1]
            c = c.prev
        e = c.edge
        vmap[frm0] = e[0]
        vmap[to0] = e[1]
        yield tuple(vmap)


def containing_graphs(projected: list) -> tuple[int, ...]:
    """The support set: the distinct graph ids of the chains, as a sorted
    tuple. The search interns it per run and the closed miner's hash table
    is keyed by it."""
    return tuple(sorted({e.gid for e in projected}))


def equivalent_occurrence(parent_projected: list, bucket: Bucket) -> bool:
    """True iff every parent chain extends into the child: L = I.

    L counts the distinct parent chains among the bucket's ``prevs``, i.e.
    the parent isomorphisms extendable under the canonical inclusion of the
    parent pattern in the child. The bucket need not be linked.
    """
    if len(bucket) < len(parent_projected):
        return False
    return len(set(map(id, bucket.prevs))) == len(parent_projected)


def dropped_extension_covers(
    code: Sequence[Sequence[int]], projected: list, db: GraphDatabase, kept: dict
) -> bool:
    """True iff some one-edge extension not in ``kept`` extends every chain.

    ``kept`` holds the node's frequent extension buckets. Each holds every
    hit of its tuple, so ``equivalent_occurrence`` settles it; every
    other extension is tested here. The candidates are chain 0's one-edge
    extensions at every pattern vertex, written as right-most tuples so the
    keys of ``kept`` can be subtracted: ``(v, newv, lbl[v], elb, lbl_to)``
    for a half-edge from v to a vertex outside the map, and
    ``(hi, lo, lbl[hi], elb, lbl[lo])`` for an edge between two pattern
    vertices the code does not join (graphs are simple and chains
    injective, so such an edge belongs to the chain exactly when the code
    joins its ends). Each further chain is read once, as a vertex map, and
    keeps a candidate only if it has that tuple's edge itself: a forward
    tuple needs a half-edge of its label at the source's image leading
    outside the map to a vertex of its label; a backward tuple needs the
    edge of its label between its two images. The walk stops at the first
    chain that keeps no candidate. Later chains are read last-first:
    chains come in graph-id order, and those right after chain 0 often
    share its graph and keep its incidental candidates. The answer,
    whether some candidate survives every chain, does not depend on it.
    """
    graphs = db.graphs
    joined = {(t[0], t[1]) for t in code} | {(t[1], t[0]) for t in code}
    c = projected[0]
    vmap = next(_vertex_maps(code, [c]))
    newv = len(vmap)
    g = graphs[c.gid]
    adj, vl = g.adj, g.vlabels
    common = set()
    for v, img in enumerate(vmap):
        lbl = vl[img]
        for e in adj[img]:
            to = e[1]
            if to not in vmap:
                common.add((v, newv, lbl, e[3], vl[to]))
            else:
                j = vmap.index(to)
                if j < v and (v, j) not in joined:
                    common.add((v, j, lbl, e[3], vl[to]))
    common.difference_update(kept)
    if not common:
        return False
    cands = [(t[0], t[1], t[3], t[4], t[0] < t[1]) for t in common]
    gid = c.gid
    rest = projected[:0:-1]
    for c, vmap in zip(rest, _vertex_maps(code, rest)):
        if c.gid != gid:
            gid = c.gid
            g = graphs[gid]
            adj, vl = g.adj, g.vlabels
        survivors = []
        for cand in cands:
            v, w, elb, tlb, forward = cand
            if forward:
                for e in adj[vmap[v]]:
                    if e[3] == elb and vl[e[1]] == tlb and e[1] not in vmap:
                        survivors.append(cand)
                        break
            else:
                to = vmap[w]
                for e in adj[vmap[v]]:
                    if e[1] == to and e[3] == elb:
                        survivors.append(cand)
                        break
        if not survivors:
            return False
        cands = survivors
    return True


def frequent_single_edges(db: GraphDatabase, min_freq: int) -> list[tuple[DFSCode, Bucket]]:
    """All frequent 1-edge codes with the Bucket of their hits, sorted
    ascending.

    One pass files the half-edges by label triple, each with its graph's
    empty chain as parent; buckets found in fewer than ``min_freq`` graphs
    are dropped. An edge with distinct endpoint labels is one hit in its
    canonical orientation; equal endpoint labels give both orientations,
    matching the two isomorphisms of the pattern onto that edge.
    """
    buckets: dict[tuple, Bucket] = {}
    for gid, g in enumerate(db.graphs):
        vl = g.vlabels
        empty = Embedding(gid, None, None)
        for u, lu in enumerate(vl):
            for e in g.adj[u]:
                lv = vl[e[1]]
                if lu <= lv:
                    trip = (lu, e[3], lv)
                    bucket = buckets.get(trip)
                    if bucket is None:
                        bucket = buckets[trip] = Bucket()
                    bucket.prevs.append(empty)
                    bucket.edges.append(e)
    return [
        (DFSCode([(0, 1) + trip]), buckets[trip])
        for trip in sorted(buckets)
        if buckets[trip].support() >= min_freq
    ]


def project_code(code: Sequence[Sequence[int]], db: GraphDatabase) -> list:
    """All embedding chains of a code, rebuilt from scratch.

    Complete for minimum codes: each prefix of a minimum code is minimum
    and each next tuple passes the extension scan's growth filters. The
    miners grow embeddings from the parent's instead; this serves callers
    that hold only a code. It links the bucket of the first tuple's label
    triple from ``frequent_single_edges(db, 1)``, the search's own seeding,
    and extends each prefix by its next tuple through the search's
    extension scan, reading only that tuple's source, so the chains come in
    the order the search links them. A first tuple the seeding has no
    bucket for, one with ``lbl_frm > lbl_to`` among them, gives ``[]``.
    """
    seeds = {tuple(c[0][2:]): bucket for c, bucket in frequent_single_edges(db, 1)}
    bucket = seeds.get(tuple(code[0][2:]))
    if bucket is None:
        return []
    chains = bucket.link()
    for k in range(1, len(code)):
        bucket = rightmost_extensions(code[:k], chains, db, {code[k][0]}).get(tuple(code[k]))
        if bucket is None:
            return []
        chains = bucket.link()
    return chains


def rightmost_extensions(
    code: Sequence[Sequence[int]],
    projected: list,
    db: GraphDatabase,
    sources: set[int] | None = None,
) -> dict[tuple, Bucket]:
    """Right-most extension tuples that may head a minimal code, each with
    the Bucket of all its hits, except tuples from the sources skipped
    below, which are never frequent.

    No chain link is built: a hit appends its parent chain and half-edge
    to the bucket's two lists, and the search links a bucket only once its
    child passes ``is_min``.

    Backward edges grow from the right-most vertex to right-most-path
    vertices (never the direct parent); forward edges grow from right-most
    path vertices and introduce the next dfs id. The tuple-level growth
    filters of canonical search drop extension tuples that can never head a
    minimal code. Keys are plain 5-tuples.

    Graphs are simple (``LabeledGraph.add_edge`` rejects repeated edges)
    and chains injective, so a graph edge between two images belongs to
    the chain exactly when the code joins their dfs ids: backward targets
    the code already joins to the right-most vertex are dropped once per
    code, and no per-embedding set of used edges is kept. One pass over
    the right-most vertex's adjacency finds its backward and forward
    edges alike. A neighbour is in the pattern when its image is in the
    chain's vertex map, and ``vmap.index`` gives its dfs id: injectivity
    makes that exact, so no inverse map is built per chain.

    Two rules skip a source vertex whole, and each skips only sources that
    yield no hit or no frequent tuple:

    - *Saturated source.* When a source's image has as many neighbours as
      the code has edges at the source, every neighbour is a pattern vertex
      the code already joins to it, so neither a forward nor a backward
      edge leaves it. One length test per chain and source decides it,
      against the code's degree list; for the right-most vertex it skips
      the backward and forward pass alike.
    - *Inherited sources.* ``sources`` holds the sources of the parent
      node's frequent forward tuples, or None to read every source. A
      forward hit of this code from a path vertex v, other than the
      right-most vertex, is also a forward hit from v of the parent's code,
      with the same labels and in the same graph: v was on the parent's
      right-most path, the parent's vertex map is a prefix of this one,
      and the growth filter at v is at least as strict here (a forward
      parent tuple from v raises v's floor to its own labels). A tuple
      from v thus has at most the support of the parent's tuple with its
      labels, so a source the parent had no frequent forward tuple from
      has none here, and only those in ``sources`` are read. The
      right-most vertex is always read: it may be the vertex the parent's
      tuple introduced.

    The growth filters read only the tuple, never the embedding, and a
    skipped source yields no hit at all or only tuples below the support
    threshold, so each kept bucket still holds every hit of its tuple
    (``dropped_extension_covers`` relies on it for the frequent ones).
    """
    graphs = db.graphs
    positions = rightmost_path(code)
    maxtoc = code[positions[-1]][1]
    rmlbl = code[positions[-1]][4]
    min_vlb = code[0][2]
    degree = [0] * (maxtoc + 1)
    for t in code:
        degree[t[0]] += 1
        degree[t[1]] += 1
    joined = {t[1] for t in code if t[0] == maxtoc}
    # backward target dfs id -> (label of the path edge leaving it, whether
    # an equal edge label may close onto it, the target's own label)
    back = {
        code[pos][0]: (code[pos][3], code[pos][4] <= rmlbl, code[pos][2])
        for pos in positions[:-1]
        if code[pos][0] not in joined
    }
    fwd = [
        (code[pos][0], code[pos][3], code[pos][4], code[pos][2], degree[code[pos][0]])
        for pos in reversed(positions)
        if sources is None or code[pos][0] in sources
    ]
    rmdeg = degree[maxtoc]
    newv = maxtoc + 1
    buckets: dict[tuple, Bucket] = {}

    for emb, vmap in zip(projected, _vertex_maps(code, projected)):
        g = graphs[emb.gid]
        adj = g.adj
        vl = g.vlabels

        nbrs = adj[vmap[maxtoc]]
        for e in nbrs if len(nbrs) > rmdeg else ():
            to = e[1]
            if to not in vmap:
                nlbl = vl[to]
                if nlbl < min_vlb:
                    continue
                t = (maxtoc, newv, rmlbl, e[3], nlbl)
            else:
                j = vmap.index(to)
                if j not in back:
                    continue
                e1lbl, alloweq, tgtlbl = back[j]
                if not (e[3] > e1lbl or (e[3] == e1lbl and alloweq)):
                    continue
                t = (maxtoc, j, rmlbl, e[3], tgtlbl)
            bucket = buckets.get(t)
            if bucket is None:
                bucket = buckets[t] = Bucket()
            bucket.prevs.append(emb)
            bucket.edges.append(e)

        for frm_dfs, e1lbl, e1tolbl, frmlbl, deg in fwd:
            nbrs = adj[vmap[frm_dfs]]
            if len(nbrs) == deg:
                continue
            for e in nbrs:
                to = e[1]
                if to in vmap:
                    continue
                nlbl = vl[to]
                if nlbl < min_vlb or e[3] < e1lbl or (e[3] == e1lbl and nlbl < e1tolbl):
                    continue
                t = (frm_dfs, newv, frmlbl, e[3], nlbl)
                bucket = buckets.get(t)
                if bucket is None:
                    bucket = buckets[t] = Bucket()
                bucket.prevs.append(emb)
                bucket.edges.append(e)

    return buckets
