"""Closed-pattern mining: gSpan pruned by closed-graph early termination.

A branch of the DFS code tree is cut when its pattern provably leads only
to already-discovered closed graphs: the pattern has equivalent occurrence,
directly or through a chain of one-edge extensions, with a closed graph
found earlier. Discovered closed graphs are indexed in a hash table (CGHT)
keyed by the database images of single pattern edges, so each test touches
few candidates. A lookup can only hit a closed graph with the pattern's
support set, so the table files each closed graph under its support set and
builds its edge keys only when a lookup first reaches that set. Known
failure cases of that pruning rule are tracked in a code trie and force the
branch to be explored anyway.
"""

from __future__ import annotations

from typing import Sequence

from .dfscode import DFSCode, code_less_than_min, code_to_graph
from .embeddings import dropped_extension_covers, equivalent_occurrence, vertex_maps
from .graphs import GraphDatabase, component_of, induced_subgraph, subgraph_isomorphisms
from .gspan import MinedPattern, MiningConfig, MiningStats, search

__all__ = [
    "ClosedGraphRecord",
    "ClosedGraphHashTable",
    "DFSCodeTrie",
    "create_edge_hash_key",
    "add_closed_graph",
    "early_termination",
    "detect_etf",
    "reject_early_termination",
    "mine_closed",
]


def create_edge_hash_key(
    edge: tuple[int, int],
    code: Sequence[Sequence[int]],
    projected: list,
) -> frozenset:
    """The set of database images ``(gid, eid)`` of one pattern edge under
    all embeddings.

    ``edge`` names the pattern edge by its dfs vertex pair, in either
    orientation. Keys are order-free, so patterns sharing an edge's entire
    image set collide regardless of their own shape.
    """
    want = frozenset(edge)
    for pos, t in enumerate(code):
        if frozenset((t[0], t[1])) == want:
            hops = range(len(code) - 1 - pos)
            key = set()
            for c in projected:
                gid = c.gid
                for _ in hops:
                    c = c.prev
                key.add((gid, c.edge[2]))
            return frozenset(key)
    raise ValueError(f"edge {edge!r} is not part of the code")


class ClosedGraphRecord:
    """One discovered closed graph: its code, embeddings, and cached maps."""

    __slots__ = ("code", "chains", "discovery_index", "edge_pos", "_maps_by_gid", "_first")

    def __init__(self, code: DFSCode, chains: list, discovery_index: int):
        self.code = code
        self.chains = chains
        self.discovery_index = discovery_index
        self.edge_pos = {frozenset((t[0], t[1])): i for i, t in enumerate(code)}
        self._maps_by_gid = None
        self._first = None

    def materialize(self):
        """Vertex maps grouped by graph, plus one fixed reference embedding.

        Returns ({gid: [vertex tuple, ...]}, (gid, vertex tuple)).
        """
        if self._maps_by_gid is None:
            by_gid: dict[int, list] = {}
            for c, vmap in zip(self.chains, vertex_maps(self.code, self.chains)):
                by_gid.setdefault(c.gid, []).append(vmap)
            self._maps_by_gid = by_gid
            self._first = (self.chains[0].gid, by_gid[self.chains[0].gid][0])
        return self._maps_by_gid, self._first

    def __repr__(self) -> str:
        return f"ClosedGraphRecord(#{self.discovery_index}, {self.code!r})"


class ClosedGraphHashTable:
    """Closed graphs indexed by the image sets of their single edges.

    ``buckets`` maps an edge image set, a frozenset of ``(gid, eid)``, to
    the records with an edge of that image set, in insertion order.
    ``groups`` maps a support set, a frozenset of graph ids, to the records
    of that support set not yet in ``buckets``. Every graph id of a key is
    in its records' support sets and every graph of a record has an image
    of each of its edges, so a key only ever holds records of the group
    equal to its own graph ids, and a group indexed in insertion order
    fills each of its buckets as filing every record on insertion would.
    """

    __slots__ = ("buckets", "groups", "records")

    def __init__(self):
        self.buckets: dict[frozenset, list[ClosedGraphRecord]] = {}
        self.groups: dict[frozenset, list[ClosedGraphRecord]] = {}
        self.records: list[ClosedGraphRecord] = []

    def __len__(self) -> int:
        return len(self.records)


def add_closed_graph(cght: ClosedGraphHashTable, record: ClosedGraphRecord) -> None:
    """File a closed graph under its support set; no chain is walked.

    Its edge keys are built by the first ``early_termination`` that looks
    up a pattern with the same support set, so the benchmark's per-layer
    metrics book that work under ``cgspan.lookup``, not ``cgspan.insert``.
    """
    cght.groups.setdefault(frozenset(c.gid for c in record.chains), []).append(record)
    cght.records.append(record)


def _index_group(buckets: dict, records: list[ClosedGraphRecord]) -> None:
    """Add each record under one key per pattern edge, in order.

    A record is referenced at most once per bucket even if two of its edges
    happen to share an image set.
    """
    for record in records:
        images: list[set] = [set() for _ in record.code]
        last_first = images[::-1]
        for c in record.chains:
            gid = c.gid
            for img in last_first:
                img.add((gid, c.edge[2]))
                c = c.prev
        for img in images:
            bucket = buckets.setdefault(frozenset(img), [])
            if not any(r is record for r in bucket):
                bucket.append(record)


def early_termination(
    code: Sequence[Sequence[int]],
    projected: list,
    cght: ClosedGraphHashTable,
) -> tuple[bool, ClosedGraphRecord | None, tuple[int, ...] | None]:
    """Test whether the pattern's branch can be cut.

    True when some stored closed graph g' occurs, through a single vertex
    mapping rho of the pattern into g', at every place the pattern occurs:
    each embedding f then satisfies f = f'' o rho for some embedding f'' of
    g'. Candidate graphs come from one hash lookup on the image set of the
    pattern's last edge; candidate rhos are read off the embeddings that
    fall inside one reference embedding of g'. A true result proves the
    pattern is not closed.

    Only closed graphs with the pattern's support set can be candidates.
    The lookup misses at once when none was stored; otherwise it first
    indexes that support set's records not yet in the table, in insertion
    order, so that time is part of the lookup's.
    """
    pending = cght.groups.get(frozenset(c.gid for c in projected))
    if pending is None:
        return False, None, None
    if pending:
        _index_group(cght.buckets, pending)
        pending.clear()
    key = frozenset((c.gid, c.edge[2]) for c in projected)
    bucket = cght.buckets.get(key)
    if not bucket:
        return False, None, None

    pairs = [(t[0], t[1]) for t in code]
    fmaps = list(zip([c.gid for c in projected], vertex_maps(code, projected)))
    for record in bucket:
        by_gid, (ref_gid, ref_map) = record.materialize()
        image = set(ref_map)
        inverse = {v: i for i, v in enumerate(ref_map)}
        edge_pos = record.edge_pos
        rhos: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        for gid, fmap in fmaps:
            if gid != ref_gid or not image.issuperset(fmap):
                continue
            rho = tuple(inverse[v] for v in fmap)
            if rho in seen:
                continue
            seen.add(rho)
            if all(frozenset((rho[a], rho[b])) in edge_pos for a, b in pairs):
                rhos.append(rho)
        for rho in rhos:
            for gid, fmap in fmaps:
                k = len(fmap)
                for m in by_gid.get(gid, ()):
                    if all(m[rho[i]] == fmap[i] for i in range(k)):
                        break
                else:
                    break
            else:
                return True, record, rho
    return False, None, None


class DFSCodeTrie:
    """Prefix store of DFS codes registered as unsafe termination sources.

    Membership is path existence: a code is contained when it is a prefix
    of (or equal to) some registered code.
    """

    __slots__ = ("_root", "_size")

    def __init__(self):
        self._root: dict = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, code: Sequence[Sequence[int]]) -> None:
        node = self._root
        for t in code:
            t = tuple(t)
            child = node.get(t)
            if child is None:
                child = node[t] = {}
                self._size += 1
            node = child

    def walk_depth(self, code: Sequence[Sequence[int]]) -> int:
        """Length of the longest prefix of ``code`` present in the trie."""
        node = self._root
        depth = 0
        for t in code:
            node = node.get(tuple(t))
            if node is None:
                break
            depth += 1
        return depth

    def __contains__(self, code) -> bool:
        return len(code) > 0 and self.walk_depth(code) == len(code)


def detect_etf(code: Sequence[Sequence[int]], trie: DFSCodeTrie) -> bool:
    """Register the code when terminating through it could lose patterns.

    Witness search: deleting any vertex w other than the right-most one
    must leave a nonempty part beta around the right-most vertex such that
    beta is not contained in the code's parent pattern and beta's own
    canonical code sorts after this code, meaning beta's subtree has not
    been searched yet and never will be if branches equivalent to this one
    are cut. Leaf deletions count: a pattern one spoke short of this one
    can be exactly such a beta.
    """
    if len(code) < 2:
        return False
    g = code_to_graph(code)
    rm = g.vertex_count - 1
    parent = code_to_graph(code[:-1])
    for w in range(g.vertex_count):
        if w == rm:
            continue
        beta = induced_subgraph(g, component_of(g, rm, removed=w))
        if beta.edge_count == 0:
            continue
        if next(subgraph_isomorphisms(beta, parent), None) is not None:
            continue
        if code_less_than_min(code, beta):
            trie.insert(code)
            return True
    return False


def reject_early_termination(
    code: Sequence[Sequence[int]],
    record: ClosedGraphRecord,
    rho: tuple[int, ...],
    trie: DFSCodeTrie,
) -> bool:
    """True when the planned termination must be abandoned.

    Projects the pattern's edges through rho into the terminating closed
    graph's code, takes the last covered position n, and rejects when any
    registered code starts with that code's first n+1 tuples.
    """
    if not len(trie):
        return False
    edge_pos = record.edge_pos
    n = max(edge_pos[frozenset((rho[t[0]], rho[t[1]]))] for t in code)
    return trie.walk_depth(record.code) >= n + 1


def mine_closed(
    db: GraphDatabase,
    config: MiningConfig | None = None,
    stats: MiningStats | None = None,
) -> list[MinedPattern]:
    """All closed frequent patterns, in completion order.

    A pattern is closed when no frequent proper supergraph occurs at every
    one of its occurrences. Each pattern is settled only after its branch
    is exhausted (its supergraphs are known by then), so the output order
    is the order branches complete, not the visit order.

    Mode ``closed_no_etf`` keeps the early-termination pruning but skips
    failure detection and rejection; it can lose closed patterns and
    exists to measure what the failure handling contributes.

    The search is gSpan's, restricted extension scan included: ``enter``
    adds the CGHT lookup, rejection and failure detection before a node's
    children, ``leave`` the closure check and the CGHT insert after them.
    The closure check asks the cheap questions first: a covering stored
    closed graph, then the frequent buckets the search already built, and
    only then a walk over the chains for the tuples the restricted scan
    dropped, which stops at the first chain no such tuple extends.
    """
    config = config or MiningConfig(mode="closed")
    if config.mode not in ("closed", "closed_no_etf"):
        raise ValueError(f"mine_closed requires mode closed or closed_no_etf, got {config.mode!r}")
    stats = stats if stats is not None else MiningStats()
    use_etf = config.mode == "closed"
    cght = ClosedGraphHashTable()
    trie = DFSCodeTrie()

    def enter(code: list, projected: list) -> bool | None:
        terminate, record, rho = early_termination(code, projected, cght)
        if terminate:
            if use_etf and reject_early_termination(code, record, rho, trie):
                stats.early_terminations_rejected += 1
            else:
                stats.early_terminations_applied += 1
                return None
        if use_etf:
            detect_etf(code, trie)
        return terminate

    def leave(code: list, projected: list, exts: dict, covered: bool, emit) -> None:
        # A pattern that triggered termination is covered by a stored
        # closed graph even when the trie forced its branch open.
        if (
            covered
            or any(equivalent_occurrence(projected, b) for b in exts.values())
            or dropped_extension_covers(code, projected, db)
        ):
            return
        pattern = emit(code, projected)
        add_closed_graph(cght, ClosedGraphRecord(pattern.code, projected, pattern.discovery_index))

    out = search(db, config, stats, enter, leave)
    stats.trie_size = len(trie)
    return out
