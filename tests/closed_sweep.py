"""Exhaustive check of closed mining on small databases.

Mines every database of a small scope in both closed modes and compares
each with one oracle filter over the frequent patterns (``filter_closed``
over ``mine_frequent``). The scopes are those of ROADMAP P4:

- one graph, support 1: every connected graph with one edge label, up to
  6 edges and 1 or 2 vertex labels, or up to 4 edges and 3 vertex labels;
- two graphs, supports 1 and 2: every pair, a graph with itself included,
  of connected graphs with one edge label, up to 4 edges and 2 vertex
  labels.

Graphs come from ``conftest.connected_labeled_graphs``, one per
isomorphism class (deduplicated by ``min_dfs_code``). The smaller scopes
are subsets of the two largest, so those two are enumerated once and each
graph is mined once. It exits 1 unless

- each scope has its pinned number of graphs;
- every ``closed`` run finds exactly the oracle's patterns;
- no ``closed_no_etf`` run emits a pattern outside the oracle set.

The name keeps pytest from collecting it.

Usage: python tests/closed_sweep.py
"""

from __future__ import annotations

import sys
from itertools import combinations_with_replacement
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from graphmine.cgspan import mine_closed  # noqa: E402
from graphmine.dfscode import min_dfs_code  # noqa: E402
from graphmine.graphs import GraphDatabase, LabeledGraph  # noqa: E402
from graphmine.gspan import MiningConfig, mine_frequent  # noqa: E402
from graphmine.oracle import filter_closed  # noqa: E402
from conftest import connected_labeled_graphs, key_set  # noqa: E402

# One-graph scopes as (max edges, vertex labels, graphs), ROADMAP P4's rows.
ONE_GRAPH_SCOPES = ((6, 1, 52), (4, 2, 103), (4, 3, 526), (5, 2, 395), (6, 2, 1683))
# Two-graph scope: graphs with up to 4 edges and 2 vertex labels.
PAIR_SCOPE = (4, 2)


def canonical(g: LabeledGraph) -> tuple:
    return tuple(map(tuple, min_dfs_code(g)))


def graphs_in(max_edges: int, n_vlabels: int) -> dict[tuple, LabeledGraph]:
    """One graph per isomorphism class, keyed by its minimum code, in
    enumeration order."""
    found: dict[tuple, LabeledGraph] = {}
    for g in connected_labeled_graphs(max_edges, n_vlabels, n_elabels=1):
        found.setdefault(canonical(g), g)
    return found


def in_scope(code: tuple, max_edges: int, n_vlabels: int) -> bool:
    return len(code) <= max_edges and max(max(t[2], t[4]) for t in code) < n_vlabels


def mismatches(db: GraphDatabase, sup: int) -> tuple[bool, bool]:
    """Whether ``closed`` differs from the oracle, and whether
    ``closed_no_etf`` emits a pattern outside it."""
    oracle = key_set(filter_closed(mine_frequent(db, MiningConfig(min_support=sup)), db))
    closed = key_set(mine_closed(db, MiningConfig(min_support=sup, mode="closed")))
    no_etf = key_set(mine_closed(db, MiningConfig(min_support=sup, mode="closed_no_etf")))
    return closed != oracle, not no_etf <= oracle


def main() -> int:
    ok = True
    every = graphs_in(6, 2) | graphs_in(4, 3)
    verdicts = {code: mismatches(GraphDatabase([g]), 1) for code, g in every.items()}
    for max_edges, n_vlabels, expected in ONE_GRAPH_SCOPES:
        scope = [code for code in every if in_scope(code, max_edges, n_vlabels)]
        wrong = sum(verdicts[code][0] for code in scope)
        print(f"one graph, up to {max_edges} edges, {n_vlabels} labels, support 1:"
              f" {len(scope)} graphs, {wrong} mismatches")
        if len(scope) != expected:
            print(f"  expected {expected} graphs")
            ok = False
    failing = sorted(code for code, (wrong, _) in verdicts.items() if wrong)
    if failing:
        print(f"mismatching one-graph databases (min codes): {failing}")
        ok = False
    extra = sorted(code for code, (_, emits) in verdicts.items() if emits)

    pair_codes = [code for code in every if in_scope(code, *PAIR_SCOPE)]
    runs = 0
    pair_failing = []
    for a, b in combinations_with_replacement(pair_codes, 2):
        db = GraphDatabase([every[a], every[b]])
        for sup in (1, 2):
            wrong, emits = mismatches(db, sup)
            runs += 1
            if wrong:
                pair_failing.append((a, b, sup))
            if emits:
                extra.append((a, b, sup))
    print(f"two graphs, up to {PAIR_SCOPE[0]} edges each, {PAIR_SCOPE[1]} labels, supports 1-2:"
          f" {len(pair_codes)} graphs, {runs} runs, {len(pair_failing)} mismatches")
    if pair_failing:
        print(f"mismatching two-graph databases (min codes, support): {pair_failing}")
        ok = False
    if extra:
        print(f"closed_no_etf emits patterns the oracle rejects on: {extra}")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
