"""Differential fuzz of closed mining over a fixed seed range.

Runs ``verify_run`` in mode ``closed`` on ``fuzz_database(seed)`` for seeds
0 to N-1 (N = 2000 by default) at supports 1, 2 and 3, and exits 1 unless
the runs that differ from the oracle are exactly the known defect runs of
that range (``test_cgspan.DEFECT_RUNS``): a new loss and a fix both fail it,
so the pinned list moves with the miner. ``DEFECT_RUNS`` covers seeds
0-7199. The name keeps pytest from collecting it.

Usage: python tests/fuzz_range.py [N]
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from graphmine.gspan import MiningConfig  # noqa: E402
from graphmine.oracle import verify_run  # noqa: E402
from test_cgspan import DEFECT_RUNS, fuzz_database  # noqa: E402

SUPPORTS = (1, 2, 3)


def main(n_seeds: int) -> int:
    seeds = range(n_seeds)
    failing = set()
    for seed in seeds:
        db = fuzz_database(seed)
        for sup in SUPPORTS:
            if not verify_run(db, MiningConfig(min_support=sup, mode="closed")).ok:
                failing.add((seed, sup))
    expected = {(s, sup) for s, sup in DEFECT_RUNS if s in seeds and sup in SUPPORTS}
    runs = len(seeds) * len(SUPPORTS)
    print(f"{runs} runs, {len(failing)} differ from the oracle: {sorted(failing)}")
    if failing != expected:
        print(f"new mismatches: {sorted(failing - expected)}")
        print(f"known defect runs now matching: {sorted(expected - failing)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 2000))
