#!/usr/bin/env python3
"""Frequent versus closed mining cost on a synthetic database.

Closed mining always shrinks the output: every frequent pattern and its
occurrence count are recoverable from the closed set, so nothing is lost.
Mode closed cuts no branch: it visits every frequent pattern and emits the
closed ones, so it costs frequent mining plus the closure check. Mode
closed_no_etf prunes by early termination with no failure detection, so
it can lose closed patterns; the no_etf and cuts columns show how many
patterns it emits and how many branches it cuts. This script generates a
seeded random database, sweeps support thresholds, and tabulates counts,
wall times, and the pruning counter. A final double run checks that
output is byte-for-byte deterministic.
"""

from __future__ import annotations

import argparse
import random
import time

from graphmine import (
    GraphDatabase,
    LabeledGraph,
    MiningConfig,
    MiningStats,
    mine_closed,
    mine_frequent,
    write_patterns,
)
from graphmine.cli import _support_list


def random_connected(rng: random.Random, nv: int, n_vlabels: int, n_elabels: int,
                     extra_edges: int) -> LabeledGraph:
    """A random spanning tree plus a few chords."""
    g = LabeledGraph()
    for _ in range(nv):
        g.add_vertex(rng.randrange(n_vlabels))
    pairs = set()
    for v in range(1, nv):
        u = rng.randrange(v)
        g.add_edge(v, u, rng.randrange(n_elabels))
        pairs.add((u, v))
    candidates = [(u, v) for u in range(nv) for v in range(u + 1, nv) if (u, v) not in pairs]
    rng.shuffle(candidates)
    for u, v in candidates[: rng.randint(0, extra_edges)]:
        g.add_edge(u, v, rng.randrange(n_elabels))
    return g


def synthetic_database(
    rng: random.Random,
    n_graphs: int,
    motif_vertices: int = 7,
    plant_prob: float = 0.75,
    decoration: int = 4,
    n_vlabels: int = 3,
    n_elabels: int = 2,
) -> GraphDatabase:
    """Graphs sharing a planted motif under per-graph random decoration.

    Most graphs contain a verbatim copy of one fixed random motif, so the
    motif's whole subgraph family is frequent; that family is exactly the
    redundancy closed mining collapses.
    """
    motif = random_connected(rng, motif_vertices, n_vlabels, n_elabels, extra_edges=2)
    graphs = []
    for _ in range(n_graphs):
        g = LabeledGraph()
        core = motif if rng.random() < plant_prob else random_connected(
            rng, motif_vertices, n_vlabels, n_elabels, extra_edges=2
        )
        for lbl in core.vlabels:
            g.add_vertex(lbl)
        for u, v, elb in core.edges:
            g.add_edge(u, v, elb)
        base = g.vertex_count
        for i in range(rng.randint(1, decoration)):
            w = g.add_vertex(rng.randrange(n_vlabels))
            g.add_edge(w, rng.randrange(base + i), rng.randrange(n_elabels))
        graphs.append(g)
    return GraphDatabase(graphs)


def timed(fn, db, config):
    stats = MiningStats()
    t0 = time.perf_counter()
    patterns = fn(db, config, stats)
    return patterns, time.perf_counter() - t0, stats


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--graphs", type=int, default=40, help="database size (default 40)")
    ap.add_argument("--seed", type=int, default=7, help="generator seed (default 7)")
    ap.add_argument(
        "--supports",
        type=_support_list,
        default="0.5,0.4,0.3,0.25",
        help="comma-separated thresholds, fractions or absolute counts",
    )
    args = ap.parse_args()

    db = synthetic_database(random.Random(args.seed), args.graphs)
    n_edges = sum(g.edge_count for g in db)
    print(f"database: {len(db)} graphs, {n_edges} edges, seed {args.seed}")

    header = (
        f"{'support':>8} {'frequent':>9} {'closed':>7} {'ratio':>6} "
        f"{'freq_s':>7} {'closed_s':>9} {'no_etf':>7} {'cuts':>5}"
    )
    print()
    print(header)
    print("-" * len(header))
    for s in args.supports:
        freq, t_freq, _ = timed(mine_frequent, db, MiningConfig(min_support=s))
        closed, t_closed, _ = timed(
            mine_closed, db, MiningConfig(min_support=s, mode="closed")
        )
        no_etf, _, ns = timed(mine_closed, db, MiningConfig(min_support=s, mode="closed_no_etf"))
        ratio = len(closed) / len(freq) if freq else float("nan")
        print(
            f"{s!s:>8} {len(freq):>9} {len(closed):>7} {ratio:>6.2f} "
            f"{t_freq:>7.3f} {t_closed:>9.3f} "
            f"{len(no_etf):>7} {ns.early_terminations_applied:>5}"
        )

    print("\nno_etf = patterns closed_no_etf emits, cuts = branches its early termination prunes")

    s = args.supports[-1]
    first = write_patterns(mine_closed(db, MiningConfig(min_support=s, mode="closed")), db)
    second = write_patterns(mine_closed(db, MiningConfig(min_support=s, mode="closed")), db)
    same = first == second
    print(f"\ndeterminism at support {s}: repeated runs byte-identical = {same}")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
