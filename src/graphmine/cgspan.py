"""Closed-pattern mining: gSpan with a closure check at every node.

Mode ``closed`` is gSpan plus the check: the search visits every frequent
pattern, as ``mine_frequent`` does, and emits the closed ones, those that
no one-edge extension at any vertex preserves all occurrences of.

Mode ``closed_no_etf`` adds the paper's Early Termination without its
failure detection. A branch is cut when its pattern has equivalent
occurrence, through one vertex mapping, with a closed graph found earlier,
so its subtree is taken to hold no closed pattern. Discovered closed
graphs are kept in a closed-graph hash table (CGHT) filed by support set:
only a closed graph with the pattern's support set can cover it. The key
is the sorted tuple of graph ids that the closed pattern holds as
``MinedPattern.containing_graphs``, so the table and the output share one
object per support set. The paper also keys the table by the database
images of single pattern edges; a cover implies that key, so the table
builds none. Nothing detects the cases where a cut loses a closed pattern
below it, so this mode can lose closed patterns; it never emits one that
is not closed.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate
from operator import itemgetter
from typing import Sequence

from .embeddings import (
    containing_graphs,
    dropped_extension_covers,
    equivalent_occurrence,
    vertex_maps,
)
from .graphs import GraphDatabase
from .gspan import MinedPattern, MiningConfig, MiningStats, search

__all__ = [
    "ClosedGraphRecord",
    "ClosedGraphHashTable",
    "add_closed_graph",
    "early_termination",
    "mine_closed",
]


class ClosedGraphRecord:
    """One discovered closed graph: the ``MinedPattern`` it was emitted as
    and its embeddings.

    The table files it under ``pattern.containing_graphs``. A record holds
    its embedding chains, in graph-id order, until a lookup first reads
    it. ``materialize`` then replaces them with their vertex maps and
    builds ``edges``, which are None until then; ``pattern.occurrence``
    keeps the chain count either way.
    """

    __slots__ = ("pattern", "chains", "edges", "maps", "ends")

    def __init__(self, pattern: MinedPattern, chains: list):
        self.pattern = pattern
        self.chains = chains
        self.edges = None
        self.maps = None
        self.ends = None

    def materialize(self):
        """The vertex maps, one flat list in chain order, and the offsets
        where each graph's run of maps ends.

        The first call builds both, and ``edges`` (the code's edges as
        dfs-id pairs, each in both orientations), and sets ``chains`` to
        None: a lookup reads only the maps and edges, and the chains' links
        outweigh them. Most records are never read, so none of this is
        built at insert.
        """
        if self.maps is None:
            code = self.pattern.code
            self.edges = {(t[0], t[1]) for t in code} | {(t[1], t[0]) for t in code}
            self.maps = vertex_maps(code, self.chains)
            self.ends = array("l", accumulate(_run_lengths(self.chains)))
            self.chains = None
        return self.maps, self.ends

    def __repr__(self) -> str:
        return f"ClosedGraphRecord(#{self.pattern.discovery_index}, {self.pattern.code!r})"


def _run_lengths(chains: list) -> list[int]:
    """How many chains each graph has, in graph-id order.

    Chains come in non-decreasing graph-id order, so each graph's chains
    form one run and the counter meets the graphs in that order.
    """
    return list(Counter(c.gid for c in chains).values())


# Closed graphs filed by support set: a sorted tuple of graph ids maps to
# the records with that support set, in insertion order. In a mining run
# the key is the tuple the group's first pattern holds as
# ``containing_graphs``, shared with every other pattern of that support
# set. ``ClosedGraphHashTable()`` is an empty dict.
ClosedGraphHashTable = dict[tuple[int, ...], list[ClosedGraphRecord]]


def add_closed_graph(cght: ClosedGraphHashTable, record: ClosedGraphRecord) -> None:
    """File a closed graph under its support set; no chain is walked."""
    cght.setdefault(record.pattern.containing_graphs, []).append(record)


def early_termination(
    code: Sequence[Sequence[int]],
    projected: list,
    cght: ClosedGraphHashTable,
) -> tuple[bool, ClosedGraphRecord | None, tuple[int, ...] | None]:
    """Test whether the pattern's branch can be cut.

    True when some stored closed graph g' occurs, through a single vertex
    mapping rho of the pattern into g', at every place the pattern occurs:
    each embedding f then satisfies f = f'' o rho for some embedding f'' of
    g'. Candidate graphs are the stored closed graphs with the pattern's
    support set, in insertion order, found by the sorted tuple of the
    pattern's graph ids, the key ``containing_graphs`` gives. A true result
    proves the pattern is not closed.

    Two size tests skip a record unread. One with no more edges than the
    pattern would be the same pattern under rho, and the search visits each
    pattern once. One with fewer embeddings than the pattern cannot cover
    it, by the lemma below.

    The lemma: let rho carry the pattern's edges onto edges of g' with the
    same labels, as every candidate rho does. Then every composition
    f'' o rho of an embedding f'' of g' is itself an embedding of the
    pattern, and the pattern's embedding list is complete, so f'' ->
    f'' o rho maps the embeddings of g' in each graph into the pattern's
    there. Three things follow.

    - Candidate rhos come from one graph. Chains are in graph-id order, so
      the support set's least graph holds the pattern's first chains and
      g''s first embedding, the reference map ref. Under a covering rho,
      ref o rho is one of those pattern maps, so rhos are read off the
      pattern maps there that lie inside ref, in chain order, through
      ref's inverse. Only those pattern maps are built. Each rho is met
      once: a simple graph gives distinct chains distinct maps, and the
      inverse is injective on ref's image.
    - A cover is a count. Under rho, the pattern is covered in a graph
      exactly when the distinct maps ``itemgetter(*rho)(f'')`` over the
      record's maps there number the pattern's chains there. Automorphisms
      of g' can send several record maps onto one pattern map, so the
      record may have more maps in a graph than the pattern has chains.
    - The paper's edge-image key is redundant: the images of the edge
      rho(last edge) of g' are exactly the images of the pattern's last
      edge, so every covering record has the pattern's key, and the first
      covering record in insertion order is the one a keyed bucket would
      yield.

    A pattern has at least two vertices, so both getters return tuples.
    """
    group = cght.get(containing_graphs(projected))
    if group is None:
        return False, None, None
    size, occ = len(code), len(projected)
    candidates = [r for r in group if len(r.pattern.code) > size and r.pattern.occurrence >= occ]
    if not candidates:
        return False, None, None

    counts = _run_lengths(projected)
    pairs = [(t[0], t[1]) for t in code]
    ref_fmaps = vertex_maps(code, projected[: counts[0]])
    for record in candidates:
        maps, ends = record.materialize()
        image = set(maps[0])
        inverse = {v: i for i, v in enumerate(maps[0])}
        edges = record.edges
        for fmap in ref_fmaps:
            if not image.issuperset(fmap):
                continue
            rho = itemgetter(*fmap)(inverse)
            if not all((rho[a], rho[b]) in edges for a, b in pairs):
                continue
            get = itemgetter(*rho)
            start = 0
            for end, n in zip(ends, counts):
                if len(set(map(get, maps[start:end]))) != n:
                    break
                start = end
            else:
                return True, record, rho
    return False, None, None


def mine_closed(
    db: GraphDatabase,
    config: MiningConfig | None = None,
    stats: MiningStats | None = None,
) -> list[MinedPattern]:
    """All closed frequent patterns, in gSpan's pre-order.

    A pattern is closed when no frequent proper supergraph occurs at every
    one of its occurrences. Each pattern is settled when the search visits
    it, from its own extensions alone, so the output is ``mine_frequent``'s
    list with the patterns that are not closed left out.

    The search is gSpan's, with the hooks every search runs. In mode
    ``closed`` ``enter`` never cuts, so the search visits what
    ``mine_frequent`` visits, and ``settle`` is the closure check. The
    check is the definition: a pattern is emitted when no one-edge
    extension at any of its vertices extends every chain. It asks the
    frequent buckets the search already built first, and only then walks
    the chains for every other extension. The walk reads the candidates
    off the first chain, tests each later chain's vertex map for the
    candidates' own edges, and stops at the first chain that has none of
    them. It reads the later chains last-first, since those next to the
    first often share its graph and keep its incidental candidates; the
    answer does not depend on the order.

    Mode ``closed_no_etf`` adds early termination: ``enter`` cuts a branch
    whose pattern a stored closed graph covers, and ``settle`` files every
    emitted pattern in the CGHT. A cut can lose a closed pattern below it,
    never emit one, since the check alone decides what is emitted.
    """
    config = config or MiningConfig(mode="closed")
    if config.mode not in ("closed", "closed_no_etf"):
        raise ValueError(f"mine_closed requires mode closed or closed_no_etf, got {config.mode!r}")
    stats = stats if stats is not None else MiningStats()
    use_cght = config.mode == "closed_no_etf"
    cght = ClosedGraphHashTable()

    def enter(code: list, projected: list) -> bool:
        if use_cght and early_termination(code, projected, cght)[0]:
            stats.early_terminations_applied += 1
            return True
        return False

    def settle(code: list, projected: list, exts: dict, emit) -> None:
        if any(equivalent_occurrence(projected, b) for b in exts.values()) or (
            dropped_extension_covers(code, projected, db, exts)
        ):
            return
        pattern = emit(code, projected)
        if use_cght:
            add_closed_graph(cght, ClosedGraphRecord(pattern, projected))

    return search(db, config, stats, enter, settle)
