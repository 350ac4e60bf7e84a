"""Frequent subgraph mining by canonical DFS-code search.

The search tree has one node per DFS code; children are right-most
extensions sorted ascending, and a node is expanded only when its code is
minimal, so every frequent pattern is visited exactly once, at its
canonical form, in pre-order. Both miners run it with two hooks at every
node, before its children are pushed: frequent mining's never cut and emit
every node, closed mining's emit the closed patterns, and in mode
``closed_no_etf`` cut by early termination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dfscode import DFSCode, EdgeTuple, child_sort_key, is_min
from .embeddings import Bucket, containing_graphs, frequent_single_edges, rightmost_extensions
from .graphs import GraphDatabase

MODES = ("frequent", "closed", "closed_no_etf")


@dataclass
class MiningConfig:
    """Parameters shared by both miners.

    min_support: a float in (0, 1] is a fraction of the database (threshold
    ceil(fraction * |D|), taken on the fraction's decimal value so that
    0.07 of 100 graphs is 7, not 8); an int >= 1 is an absolute graph count.
    """

    min_support: float | int = 2
    mode: str = "frequent"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        s = self.min_support
        if isinstance(s, bool) or not isinstance(s, (int, float)):
            raise ValueError(f"min_support must be int or float, got {s!r}")
        if isinstance(s, int):
            if s < 1:
                raise ValueError("absolute support must be at least 1")
        elif not 0.0 < s <= 1.0:
            raise ValueError("fractional support must be in (0, 1]")

    def min_frequency(self, db_size: int) -> int:
        if isinstance(self.min_support, int):
            return self.min_support
        # 0.07 * 100 is 7.000000000000001 in floats; the shortest decimal
        # that reads back as the float gives exactly 7.
        return max(1, math.ceil(Fraction(str(self.min_support)) * db_size))


@dataclass
class MinedPattern:
    """One emitted pattern: canonical code plus its database statistics.

    ``code`` is the pattern's own list, but its ``EdgeTuple``s are the same
    objects as in the codes of its ancestors in the search tree: a pattern
    with k edges shares its first k - 1 tuples with the code it extends.
    Tuples are immutable, so sharing them is safe, and each pattern adds
    one tuple object, not one per edge.

    ``containing_graphs`` holds dense internal graph ids, sorted, as a tuple
    that every pattern of the run with the same support set shares (and
    that the closed miner's hash table files its records under); it is
    immutable, so sharing it is safe. Serialization maps the ids back to
    those of the source file. ``embeddings.project_code(code, db)``
    rebuilds the pattern's bucket, its hits in the order the search held
    them.
    """

    code: DFSCode
    support: int
    occurrence: int
    containing_graphs: tuple[int, ...]
    discovery_index: int


@dataclass
class MiningStats:
    """Counters filled during one mining run.

    ``early_terminations_applied`` counts the branches mode
    ``closed_no_etf`` cuts. ``early_terminations_rejected`` and
    ``trie_size`` are always 0: no mode rejects a cut or keeps a trie. They
    stay because the ``--stats`` schema-1 key set holds them and
    ``perfbench/tracing.py::layer_metrics`` reads both; deleting either
    crashes the benchmark's traced pass.
    """

    visited_nodes: int = 0
    pattern_count: int = 0
    early_terminations_applied: int = 0
    early_terminations_rejected: int = 0
    trie_size: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def search(
    db: GraphDatabase,
    config: MiningConfig,
    stats: MiningStats,
    enter,
    settle,
) -> list[MinedPattern]:
    """Depth-first search of the DFS-code tree, one visit per minimal code.

    Every visit takes one path: give the node's bucket its graph-id column
    (``Bucket.visit``), ``enter``, scan, ``settle``, push the children from
    ``exts``. The hooks, ``emit`` and the scan all get that bucket as
    ``projected``, the node's embedding list.

    - ``enter(code, projected)`` returns True to cut the branch.
    - ``settle(code, projected, exts, emit)`` gets the node's frequent
      extension buckets, exactly the children's; extensions not in ``exts``
      are its own to check.
      It emits the pattern by calling ``emit(code, projected)``, which
      returns the MinedPattern. ``emit`` interns each support set, so
      patterns with the same containing graphs share one sorted tuple.

    The scan reads ``db`` as given and builds only tuples that may head a
    minimal code. Only buckets with enough support are kept: a bucket that
    extends every embedding has the node's own support, so the closure
    check loses nothing. A child is pushed only when its code passes
    ``is_min``, so the stack never holds the buckets of a child it would
    reject; a 1-edge root is minimal by construction and is not tested.
    Children pop in ascending tuple order. A bucket on the stack, like each
    one in ``exts``, has no graph-id column: only a visited node's has one.

    Memory peaks in a scan, which files every hit of the node's
    extensions. By then the last node's ``exts`` is gone: it is released
    as soon as its children are pushed, so the buckets of children that
    fail ``is_min``, which nothing reads again, do not live through the
    next visit. A child's code is its parent's list plus one
    ``EdgeTuple``, and ``DFSCode`` keeps the tuples it is given, so every
    emitted code shares its prefix tuples with its ancestors'.

    Each child is pushed with the sources of its parent's frequent forward
    tuples, one set shared by all siblings. Its scan reads forward edges
    only from those path vertices and from its right-most vertex; the
    sources it skips yield only infrequent tuples (``rightmost_extensions``
    says why), so ``exts`` is the same as with every source read.
    """
    min_freq = config.min_frequency(len(db.graphs))
    out: list[MinedPattern] = []
    support_sets: dict[tuple, tuple] = {}

    def emit(code: list, projected: Bucket) -> MinedPattern:
        gids = containing_graphs(projected)
        gids = support_sets.setdefault(gids, gids)
        pattern = MinedPattern(
            code=DFSCode(code),
            support=len(gids),
            occurrence=len(projected),
            containing_graphs=gids,
            discovery_index=len(out),
        )
        out.append(pattern)
        stats.pattern_count += 1
        return pattern

    # A node pushes its minimal children in reverse so they pop in ascending
    # order, each with the sources of its parent's frequent forward tuples;
    # a root has no parent and reads every source.
    stack: list[tuple] = [
        (list(c), b, None) for c, b in reversed(frequent_single_edges(db, min_freq))
    ]
    while stack:
        code, projected, sources = stack.pop()
        projected.visit()
        stats.visited_nodes += 1
        if enter(code, projected):
            continue
        exts = {
            t: bucket
            for t, bucket in rightmost_extensions(code, projected, db, sources).items()
            if bucket.support() >= min_freq
        }
        settle(code, projected, exts, emit)
        sources = {t[0] for t in exts if t[0] < t[1]}
        for t in sorted(exts, key=child_sort_key, reverse=True):
            child = code + [EdgeTuple._make(t)]
            if is_min(child):
                stack.append((child, exts[t], sources))
        # Free the buckets no child took before the next visit's scan.
        del exts
    return out


def mine_frequent(
    db: GraphDatabase,
    config: MiningConfig | None = None,
    stats: MiningStats | None = None,
) -> list[MinedPattern]:
    """All frequent connected patterns with >= 1 edge, in pre-order."""
    config = config or MiningConfig()
    if config.mode != "frequent":
        raise ValueError(f"mine_frequent requires mode frequent, got {config.mode!r}")

    def settle(code: list, projected: Bucket, exts: dict, emit) -> None:
        emit(code, projected)

    stats = stats if stats is not None else MiningStats()
    return search(db, config, stats, lambda code, projected: False, settle)
