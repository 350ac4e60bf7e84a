"""Exhaustive check of canonical forms on one-label graphs.

Compares ``min_dfs_code`` with the brute-force minimum (``brute_min_code``,
which enumerates every DFS code of a graph) on every connected graph with
one vertex label, one edge label and up to 6 edges, and ``is_min`` of that
code with the subgraph matcher: its answer must hold exactly the maps
``subgraph_isomorphisms(h, h)`` yields, h being the code's own graph. It
exits 1 on the first mismatch. One-label graphs have the most automorphisms and backward
edges per edge count, so they stress the canonical search hardest. The name
keeps pytest from collecting it.

Usage: python tests/canonical_sweep.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from graphmine.dfscode import code_to_graph, is_min, min_dfs_code  # noqa: E402
from graphmine.graphs import subgraph_isomorphisms  # noqa: E402
from conftest import brute_min_code, connected_labeled_graphs  # noqa: E402

MAX_EDGES = 6


def main() -> int:
    checked = 0
    for g in connected_labeled_graphs(max_edges=MAX_EDGES, n_vlabels=1, n_elabels=1):
        code = min_dfs_code(g)
        got = tuple(map(tuple, code))
        expected = brute_min_code(g)
        if got != expected:
            print(f"min code mismatch on edges {g.edges}:\n  got      {got}\n  expected {expected}")
            return 1
        h = code_to_graph(code)
        autos = sorted(is_min(code))
        maps = sorted(subgraph_isomorphisms(h, h))
        if autos != maps:
            print(f"automorphism mismatch on code {got}:\n  is_min  {autos}\n  matcher {maps}")
            return 1
        checked += 1
    print(
        f"{checked} one-label graphs with up to {MAX_EDGES} edges:"
        " min codes and automorphisms match"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
