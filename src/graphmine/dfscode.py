"""DFS codes: canonical labeling of connected labeled graphs.

A DFS code is a sequence of 5-tuples ``(frm, to, lbl_frm, lbl_edge, lbl_to)``
over dfs vertex ids assigned in discovery order. A forward tuple (frm < to)
introduces vertex ``to``; a backward tuple (frm > to) closes a cycle between
known vertices. The minimum code under the lexicographic extension of the
tuple order below (``child_sort_key``) is the graph's canonical form.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .graphs import LabeledGraph


class EdgeTuple(NamedTuple):
    frm: int
    to: int
    lbl_frm: int
    lbl_edge: int
    lbl_to: int


def child_sort_key(t: Sequence[int]) -> tuple:
    """Sort key of the tuple order, on tuples that extend one common code.

    That is the only domain the order is ever applied to: every backward
    tuple leaves the right-most vertex and every forward tuple introduces
    the next dfs id. Backward tuples come first, by (to, lbl_edge); forward
    tuples by deeper frm first, then the label triple.
    """
    if t[0] > t[1]:
        return (0, t[1], t[3], 0, 0)
    return (1, -t[0], t[2], t[3], t[4])


class DFSCode(list):
    """A DFS code: a list of EdgeTuples with list semantics.

    An EdgeTuple it is given is kept, not copied: tuples are immutable, so
    the miners' codes share them with their ancestors' and each emitted
    pattern adds one tuple object, not one per edge. Plain tuples are
    converted.
    """

    __slots__ = ()

    def __init__(self, tuples=()):
        super().__init__(t if type(t) is EdgeTuple else EdgeTuple._make(t) for t in tuples)

    def __repr__(self) -> str:
        return "DFSCode(" + ", ".join(repr(tuple(t)) for t in self) + ")"


def rightmost_path(code: Sequence[Sequence[int]]) -> list[int]:
    """Positions of the forward tuples on the path from the root to the
    right-most vertex, root side first."""
    if not code:
        raise ValueError("empty code has no right-most path")
    positions: list[int] = []
    old_frm = None
    for i in range(len(code) - 1, -1, -1):
        t = code[i]
        if t[0] < t[1] and (old_frm is None or t[1] == old_frm):
            positions.append(i)
            old_frm = t[0]
    positions.reverse()
    return positions


def code_to_graph(code: Sequence[Sequence[int]]) -> LabeledGraph:
    """Materialize the pattern graph a code describes.

    Vertex ids are taken verbatim as dfs ids; a tuple whose endpoints both
    exist adds only the edge, regardless of written orientation. Raises on
    label clashes, id gaps, or repeated edges.
    """
    g = LabeledGraph()
    for t in code:
        frm, to, lfrm, ledge, lto = t
        for vid, lbl in ((frm, lfrm), (to, lto)):
            if vid == g.vertex_count:
                g.add_vertex(lbl)
            elif vid > g.vertex_count:
                raise ValueError(f"tuple {tuple(t)} skips over vertex ids")
            elif g.vlabels[vid] != lbl:
                raise ValueError(f"tuple {tuple(t)} relabels vertex {vid}")
        g.add_edge(frm, to, ledge)
    return g


def _min_code_stream(g: LabeledGraph) -> Iterator[tuple]:
    """Yield the tuples of g's minimum DFS code one position at a time.

    Greedy construction: every prefix yielded so far is the minimum code of
    some subgraph reachable by right-most extension, so the minimal next
    tuple over all embeddings of the prefix in g extends the global minimum.
    ``is_min`` stops at the first tuple that differs from its code. A
    graph that is not connected raises ValueError: at the first position
    no tuple reaches, or after the last tuple when the rest of the graph
    is isolated vertices.

    Each embedding of the prefix is a vertex map, a tuple from dfs id to
    vertex of g, as everywhere else in the package. Graphs are simple and
    maps injective, so a graph edge between two images belongs to the
    embedding exactly when the code joins their dfs ids: backward targets
    the code already joins to the right-most vertex are skipped, and no
    per-embedding set of used vertices or edges is kept. Backward steps
    only filter the maps; a forward step extends only the maps that carry
    the winning label pair.

    Groups are tried in tuple order and the first non-empty one wins:
    backward edges by target from the root side, then forward edges from
    the right-most vertex (no growth filter) and from each right-most path
    vertex toward the root (growth filter against the path edge leaving
    it), all in one loop. This does not reuse
    ``embeddings.rightmost_extensions``: that scan builds every extension
    bucket, and routing ``is_min`` through it made it about 2.5x slower
    on the calls a ``dense`` benchmark run makes.
    """
    adj = g.adj
    vl = g.vlabels
    m = g.edge_count
    if m == 0:
        return
    best = min([(vl[e[0]], e[3], vl[e[1]]) for es in adj for e in es])
    min_vlb = best[0]
    code: list[tuple] = [(0, 1) + best]
    yield code[0]
    vmaps = [
        (u, e[1])
        for u in range(len(vl))
        if vl[u] == min_vlb
        for e in adj[u]
        if e[3] == best[1] and vl[e[1]] == best[2]
    ]
    positions = [0]
    maxtoc = 1
    joined: set[int] = set()  # targets of backward tuples from maxtoc

    while len(code) < m:
        rmlbl = code[positions[-1]][4]
        # Backward first: scan targets from the root side so the smallest
        # target wins; among hits at that target, the smallest edge label.
        for pos in positions[:-1]:
            tgt, _, tgtlbl, e1lbl, e1tolbl = code[pos]
            if tgt in joined:
                continue
            alloweq = e1tolbl <= rmlbl
            hits = []
            for vmap in vmaps:
                w = vmap[tgt]
                for e in adj[vmap[maxtoc]]:
                    if e[1] == w:
                        if e[3] > e1lbl or (e[3] == e1lbl and alloweq):
                            hits.append((e[3], vmap))
                        break
            if hits:
                elb = min(hits)[0]
                t = (maxtoc, tgt, rmlbl, elb, tgtlbl)
                yield t
                code.append(t)
                vmaps = [vmap for lb, vmap in hits if lb == elb]
                joined.add(tgt)
                break
        else:
            # Forward: a deeper source sorts first. The right-most vertex
            # has no growth filter (None); a path vertex needs at least the
            # (edge, target) labels of the path edge leaving it.
            sources = [(maxtoc, rmlbl, None)]
            sources += [(code[p][0], code[p][2], code[p][3:]) for p in reversed(positions)]
            for k, (frm, frmlbl, floor) in enumerate(sources):
                hits = []
                for vmap in vmaps:
                    for e in adj[vmap[frm]]:
                        to = e[1]
                        if to in vmap:
                            continue
                        nlbl = vl[to]
                        if nlbl >= min_vlb and (floor is None or (e[3], nlbl) >= floor):
                            hits.append((e[3], nlbl, vmap, to))
                if hits:
                    elb, nlbl = min(hits)[:2]
                    t = (frm, maxtoc + 1, frmlbl, elb, nlbl)
                    yield t
                    code.append(t)
                    vmaps = [vmap + (to,) for lb, nl, vmap, to in hits if lb == elb and nl == nlbl]
                    positions = positions[: len(positions) - k] + [len(code) - 1]
                    maxtoc += 1
                    joined = set()
                    break
            else:
                raise ValueError("graph is not connected; no DFS code covers it")
    if maxtoc + 1 < len(vl):
        # Every edge is placed, yet a vertex has no dfs id: it is isolated.
        raise ValueError("graph is not connected; no DFS code covers it")


def min_dfs_code(g: LabeledGraph) -> DFSCode:
    """The minimum DFS code of a connected graph with at least one edge.

    Raises ValueError on a graph that is not connected, a graph with an
    isolated vertex included.
    """
    if g.edge_count == 0:
        raise ValueError("graph has no edges")
    return DFSCode(_min_code_stream(g))


def is_min(code: Sequence[Sequence[int]]) -> bool:
    """True iff the code equals the minimum DFS code of its own graph.

    Decided lazily from the minimum-code stream: the first position where
    the two differ settles it, so a code that is not minimal fails fast.
    The graph has one edge per tuple, so the stream is as long as the code.
    """
    if not code:
        raise ValueError("empty code")
    for ck, t in zip(map(tuple, code), _min_code_stream(code_to_graph(code))):
        if ck != t:
            return False
    return True
