"""Labeled graph containers for transactional graph mining.

Graphs are simple and undirected, with integer labels on vertices and
edges. Vertices and edges carry dense 0-based ids. Adjacency stores one
directed half-edge per direction, as plain tuples ``(frm, to, eid, elb)``,
so traversal code can follow an orientation without re-deriving it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

# A label is a plain int. Datasets with string tokens are interned to ints
# by the parser; the database keeps the vocabulary for output.
Label = int


class LabeledGraph:
    """One transaction graph: vertex labels plus an edge list.

    Attributes:
        vlabels: vertex label by vertex id.
        edges: ``(u, v, elb)`` per edge id, in insertion order.
        adj: per vertex, list of directed half-edges ``(frm, to, eid, elb)``.
    """

    __slots__ = ("vlabels", "edges", "adj")

    def __init__(self):
        self.vlabels: list[Label] = []
        self.edges: list[tuple[int, int, Label]] = []
        self.adj: list[list[tuple[int, int, int, Label]]] = []

    def add_vertex(self, label: Label) -> int:
        self.vlabels.append(label)
        self.adj.append([])
        return len(self.vlabels) - 1

    def add_edge(self, u: int, v: int, label: Label) -> int:
        n = len(self.vlabels)
        if not (0 <= u < n) or not (0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references a nonexistent vertex")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adj = self.adj
        # A repeated edge shows in the shorter of the two adjacency lists.
        a, b = (u, v) if len(adj[u]) <= len(adj[v]) else (v, u)
        for h in adj[a]:
            if h[1] == b:
                raise ValueError(f"duplicate edge ({u}, {v})")
        eid = len(self.edges)
        self.edges.append((u, v, label))
        adj[u].append((u, v, eid, label))
        adj[v].append((v, u, eid, label))
        return eid

    @property
    def vertex_count(self) -> int:
        return len(self.vlabels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"LabeledGraph(|V|={self.vertex_count}, |E|={self.edge_count})"


class GraphDatabase:
    """An ordered collection of LabeledGraphs plus label vocabularies.

    Built only by the constructor, which copies every list it is given and
    raises ValueError, naming the value, on what a dataset file cannot
    carry. ``original_ids`` (default: the positions) maps the dense
    position back to the id found in the source file, so reports can name
    graphs the way the input did: one distinct int per graph, never -1,
    the file format's terminator. ``vlabel_names`` / ``elabel_names``
    translate interned labels back to their source tokens, so each holds
    distinct, non-empty names without whitespace; they stay None for
    databases built from ints. The miners number graphs by position in
    ``graphs`` and leave the graphs unchanged, so one graph may sit in
    several databases, or twice in one.
    """

    __slots__ = ("graphs", "original_ids", "vlabel_names", "elabel_names")

    def __init__(
        self,
        graphs: list[LabeledGraph] | None = None,
        original_ids: list[int] | None = None,
        vlabel_names: list[str] | None = None,
        elabel_names: list[str] | None = None,
    ):
        self.graphs: list[LabeledGraph] = list(graphs) if graphs is not None else []
        ids = range(len(self.graphs)) if original_ids is None else original_ids
        self.original_ids = _distinct("graph id", ids, lambda oid: type(oid) is int and oid != -1)
        if len(self.original_ids) != len(self.graphs):
            raise ValueError(f"{len(self.original_ids)} original ids for {len(self.graphs)} graphs")
        self.vlabel_names = _names("vertex", vlabel_names)
        self.elabel_names = _names("edge", elabel_names)

    def vertex_label_name(self, label: Label) -> str:
        return _label_name("vertex", self.vlabel_names, label)

    def edge_label_name(self, label: Label) -> str:
        return _label_name("edge", self.elabel_names, label)

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self) -> Iterator[LabeledGraph]:
        return iter(self.graphs)

    def __repr__(self) -> str:
        return f"GraphDatabase({len(self.graphs)} graphs)"


def _label_name(kind: str, names: list[str] | None, label: Label) -> str:
    """``names[label]``, or ``str(label)`` without names; a label they lack raises."""
    if names is None:
        return str(label)
    if not 0 <= label < len(names):
        raise ValueError(f"{kind} label {label!r} has no name in a vocabulary of {len(names)}")
    return names[label]


def _names(kind: str, names: list[str] | None) -> list[str] | None:
    """A vocabulary checked to hold tokens the dataset parser reads back as
    themselves: strings that split to themselves."""
    if names is None:
        return None
    return _distinct(f"{kind} label name", names, lambda n: isinstance(n, str) and n.split() == [n])


def _distinct(what: str, values: Iterable, fits: Callable[[object], bool]) -> list:
    """A copy of ``values``; raises ValueError naming the first value that
    repeats or that ``fits`` says a dataset file cannot carry."""
    values = list(values)
    seen = set()
    for value in values:
        if not fits(value):
            raise ValueError(f"{what} {value!r} cannot be written to a dataset file")
        if value in seen:
            raise ValueError(f"repeated {what} {value!r}")
        seen.add(value)
    return values


def subgraph_isomorphisms(pattern: LabeledGraph, host: LabeledGraph) -> Iterator[tuple[int, ...]]:
    """Every injective, label-preserving map carrying pattern edges to host
    edges, as a tuple of host vertices indexed by pattern vertex.

    Pattern vertices are placed in breadth-first order from vertex 0, each
    next to an already-placed neighbour, so ids need not follow discovery
    order. Each placed vertex keeps its untried candidates on an explicit
    stack; the pattern's size never meets the recursion limit. Raises
    ValueError when the pattern is empty or disconnected.
    """
    n = pattern.vertex_count
    if not n:
        raise ValueError("pattern has no vertices")
    order = [0]
    rank = {0: 0}
    for u in order:  # grows while read: a breadth-first queue
        for _, to, _, _ in pattern.adj[u]:
            if to not in rank:
                rank[to] = len(order)
                order.append(to)
    if len(order) < n:
        raise ValueError("pattern is not connected")
    if n > host.vertex_count or pattern.edge_count > host.edge_count:
        return
    # Per position: (vertex, label, base, base edge label, other anchors).
    # Anchors are the earlier-placed neighbours as (vertex, edge label);
    # candidates are read off the host half-edges at the first one's
    # image, and must reach the images of the others.
    plan = []
    for i, v in enumerate(order):
        anchors = [(to, elb) for _, to, _, elb in pattern.adj[v] if rank[to] < i]
        base, want = anchors[0] if anchors else (-1, None)
        plan.append((v, pattern.vlabels[v], base, want, anchors[1:]))
    hvl, hadj = host.vlabels, host.adj
    assign = [-1] * n
    used: set[int] = set()
    # Position 0 has no anchor: it reads stand-in half-edges, one per host
    # vertex, carrying the edge label None that its plan asks for.
    stack = [iter([(h, h, -1, None) for h in range(host.vertex_count)])]
    while stack:
        v, lbl, _, want, rest = plan[len(stack) - 1]
        used.discard(assign[v])
        for _, cand, _, elb in stack[-1]:
            if (
                elb == want
                and hvl[cand] == lbl
                and cand not in used
                and (not rest or _reaches(hadj[cand], assign, rest))
            ):
                break
        else:
            assign[v] = -1
            stack.pop()
            continue
        assign[v] = cand
        if len(stack) == n:
            yield tuple(assign)
            continue
        used.add(cand)
        base = plan[len(stack)][2]
        stack.append(iter(hadj[assign[base]]))


def _reaches(half_edges, assign: list[int], anchors: list[tuple[int, int]]) -> bool:
    """True iff, for each anchor (vertex, edge label), some half-edge leads
    to the anchor's image with that label. Plain loops: generator
    expressions here made full enumeration about 1.5x slower."""
    for u, elb in anchors:
        img = assign[u]
        for h in half_edges:
            if h[1] == img and h[3] == elb:
                break
        else:
            return False
    return True
