"""Embedding lists: how patterns touch the database.

The module holds the embedding list alone: ``Bucket``, its vertex maps,
the 1-edge seeding, the extension scan and ``project_code``. The closure
test and the closed-graph hash table that read it are in ``cgspan``.

A pattern's embedding list is the Bucket of its node in the search tree,
gSpan's projected list. It has one hit per subgraph isomorphism of the
pattern, so ``len`` is the occurrence count I(g, D) and distinct graph ids
give the support. A hit holds only what the code's last tuple adds: the
image of that edge and the index of the hit it extends in the parent's
bucket, ``parent``. A hit's full embedding is read by following parent
indices up the buckets of the code's prefixes.

Edge images are the directed half-edge tuples ``(frm, to, eid, elb)`` of the
owning graph, oriented the way the code tuple at that position reads, which
is what makes vertex maps recoverable from a hit.

The 1-edge buckets extend the empty pattern's bucket, which has one hit
per graph and only a graph-id column, so a 1-edge hit's parent index is
its graph id. A bucket gets its own graph-id column only when the search
visits it (``Bucket.visit``): most buckets are infrequent or head a code
that is not minimal, and never get one.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .dfscode import DFSCode, rightmost_path
from .graphs import GraphDatabase


class Bucket:
    """The hits of one code tuple: per hit the index of the parent hit it
    extends in ``prevs`` (a graph id for a 1-edge code) and the oriented
    half-edge in ``edges``, both plain lists in hit order.

    ``gids``, the graph id of each hit, is None until ``visit`` fills it;
    ``support`` reads the parent's column instead. ``len`` is the number of
    hits, the pattern's occurrence count.
    """

    __slots__ = ("parent", "prevs", "edges", "gids")

    def __init__(self, parent: Bucket | None):
        self.parent = parent
        self.prevs: list[int] = []
        self.edges: list[tuple[int, int, int, int]] = []
        self.gids: list[int] | None = None

    def __len__(self) -> int:
        return len(self.prevs)

    def support(self) -> int:
        """Number of distinct graphs the hits lie in."""
        return len(set(map(self.parent.gids.__getitem__, self.prevs)))

    def visit(self) -> None:
        """Give the bucket its graph-id column, read off the parent's."""
        self.gids = list(map(self.parent.gids.__getitem__, self.prevs))

    def covers_parent(self) -> bool:
        """True iff every parent hit extends into this bucket, L = I: the
        distinct parent indices in ``prevs``, the parent isomorphisms that
        extend under the canonical inclusion of the parent pattern in the
        child, number the parent's hits. The bucket need not be visited."""
        return len(self) >= len(self.parent) and len(set(self.prevs)) == len(self.parent)


def vertex_maps(code: Sequence[Sequence[int]], node: Bucket, hits: Iterable[int] | None = None):
    """dfs id -> graph vertex, one tuple per hit of a code's bucket, for the
    hit indices in ``hits`` (default: every hit, in order).

    In a DFS code vertex 0 and 1 come from the first tuple and every later
    vertex from the forward tuple that introduces it, so a per-code plan
    (the dfs id each position introduces, last position first, -1 for
    backward tuples, with that position's bucket) says which bucket holds
    which image; each hit is read in one walk up its parent indices. Maps
    are yielded one at a time so the extension scan never holds all of
    them.
    """
    vmap = [0] * (max(max(t[0], t[1]) for t in code) + 1)
    plan = []
    b = node
    for t in code[:0:-1]:
        plan.append((t[1] if t[0] < t[1] else -1, b.edges, b.prevs))
        b = b.parent
    first = b.edges
    frm0, to0 = code[0][0], code[0][1]
    for i in range(len(node)) if hits is None else hits:
        for v, edges, prevs in plan:
            if v >= 0:
                vmap[v] = edges[i][1]
            i = prevs[i]
        e = first[i]
        vmap[frm0] = e[0]
        vmap[to0] = e[1]
        yield tuple(vmap)


def containing_graphs(projected: Bucket) -> tuple[int, ...]:
    """The support set: the distinct graph ids of a visited bucket's hits,
    as a sorted tuple. The search interns it per run and the closed
    miner's hash table is keyed by it."""
    return tuple(sorted(set(projected.gids)))


def frequent_single_edges(db: GraphDatabase, min_freq: int) -> list[tuple[DFSCode, Bucket]]:
    """All frequent 1-edge codes with the Bucket of their hits, sorted
    ascending.

    One pass files the half-edges by label triple, each with its graph id
    as parent index into the empty pattern's bucket; buckets found in
    fewer than ``min_freq`` graphs are dropped. An edge with distinct
    endpoint labels is one hit in its canonical orientation; equal
    endpoint labels give both orientations, matching the two isomorphisms
    of the pattern onto that edge.
    """
    empty = Bucket(None)
    empty.gids = list(range(len(db.graphs)))
    buckets: dict[tuple, Bucket] = {}
    for gid, g in zip(empty.gids, db.graphs):
        vl = g.vlabels
        for u, lu in enumerate(vl):
            for e in g.adj[u]:
                lv = vl[e[1]]
                if lu <= lv:
                    trip = (lu, e[3], lv)
                    bucket = buckets.get(trip)
                    if bucket is None:
                        bucket = buckets[trip] = Bucket(empty)
                    bucket.prevs.append(gid)
                    bucket.edges.append(e)
    return [
        (DFSCode([(0, 1) + trip]), buckets[trip])
        for trip in sorted(buckets)
        if buckets[trip].support() >= min_freq
    ]


def project_code(code: Sequence[Sequence[int]], db: GraphDatabase) -> Bucket | None:
    """The visited bucket of a code, rebuilt from scratch, or None when the
    code has no embedding.

    Complete for minimum codes: each prefix of a minimum code is minimum
    and each next tuple passes the extension scan's growth filters. The
    miners grow buckets from the parent's instead; this serves callers
    that hold only a code. It visits the bucket of the first tuple's label
    triple from ``frequent_single_edges(db, 1)``, the search's own seeding,
    and extends each prefix by its next tuple through the search's
    extension scan, reading only that tuple's source, so the hits come in
    the order the search files them. A first tuple the seeding has no
    bucket for, one with ``lbl_frm > lbl_to`` among them, gives None.
    """
    seeds = {tuple(c[0][2:]): bucket for c, bucket in frequent_single_edges(db, 1)}
    bucket = seeds.get(tuple(code[0][2:]))
    for k in range(1, len(code)):
        if bucket is None:
            return None
        bucket.visit()
        bucket = rightmost_extensions(code[:k], bucket, db, {code[k][0]}).get(tuple(code[k]))
    if bucket is not None:
        bucket.visit()
    return bucket


def rightmost_extensions(
    code: Sequence[Sequence[int]],
    projected: Bucket,
    db: GraphDatabase,
    sources: set[int] | None = None,
) -> dict[tuple, Bucket]:
    """Right-most extension tuples that may head a minimal code, each with
    the Bucket of all its hits, except tuples from the sources skipped
    below, which are never frequent or never minimal.

    ``projected`` is the node's visited bucket. A hit appends the index of
    the node's hit it extends and its half-edge to the child bucket's two
    lists; the child gets no graph-id column until the search visits it,
    once it passes ``is_min``.

    Backward edges grow from the right-most vertex to right-most-path
    vertices (never the direct parent); forward edges grow from right-most
    path vertices and introduce the next dfs id. The tuple-level growth
    filters of canonical search drop extension tuples that can never head a
    minimal code. Keys are plain 5-tuples.

    Graphs are simple (``LabeledGraph.add_edge`` rejects repeated edges)
    and embeddings injective, so a graph edge between two images belongs to
    the embedding exactly when the code joins their dfs ids: backward targets
    the code already joins to the right-most vertex are dropped once per
    code, and no per-embedding set of used edges is kept. One pass over
    the right-most vertex's adjacency finds its backward and forward
    edges alike. A neighbour is in the pattern when its image is in the
    hit's vertex map, and ``vmap.index`` gives its dfs id: injectivity
    makes that exact, so no inverse map is built per hit.

    Two rules skip a source vertex whole, and each skips only sources that
    yield no hit or no frequent tuple:

    - *Saturated source.* When a source's image has as many neighbours as
      the code has edges at the source, every neighbour is a pattern vertex
      the code already joins to it, so neither a forward nor a backward
      edge leaves it. One length test per hit and source decides it,
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

    The search also leaves out of ``sources`` the path vertices that an
    automorphism of the pattern maps onto a deeper right-most-path vertex
    (``gspan.dominated_sources``). Their tuples can be frequent, but none
    heads a minimal code: each has a mirror from the deeper vertex, with
    the same support, that gives the same graph a smaller code. The search
    adds those vertices back to the set the children inherit, so the rule
    above holds there.

    The growth filters read only the tuple, never the embedding, and a
    skipped source yields no hit at all, only tuples below the support
    threshold or only tuples of codes that are not minimal, so each kept
    bucket still holds every hit of its tuple
    (``cgspan.equivalent_occurrence`` counts on it for the frequent ones).
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

    gids = projected.gids
    for i, vmap in enumerate(vertex_maps(code, projected)):
        g = graphs[gids[i]]
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
                bucket = buckets[t] = Bucket(projected)
            bucket.prevs.append(i)
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
                    bucket = buckets[t] = Bucket(projected)
                bucket.prevs.append(i)
                bucket.edges.append(e)

    return buckets
