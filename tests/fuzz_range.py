"""Differential fuzz of closed mining over a fixed seed range.

For seeds 0 to N-1 (N = 2000 by default) at supports 1, 2 and 3, mines
``fuzz_database(seed)`` in modes ``closed`` and ``closed_no_etf`` and
compares both with one oracle filter over the frequent patterns of that
run. It exits 1 unless

- the ``closed`` runs that differ from the oracle are exactly the known
  defect runs of that range (``test_cgspan.DEFECT_RUNS``): a new loss and a
  fix both fail it, so the pinned list moves with the miner;
- no ``closed_no_etf`` run emits a pattern outside the oracle set. That
  mode skips failure handling and may lose patterns, but early termination
  only prunes, so it never emits a pattern that is not closed.

``DEFECT_RUNS`` covers seeds 0-7199. The name keeps pytest from collecting
it.

Usage: python tests/fuzz_range.py [N]
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from graphmine.cgspan import mine_closed  # noqa: E402
from graphmine.gspan import MiningConfig, mine_frequent  # noqa: E402
from graphmine.oracle import filter_closed  # noqa: E402
from test_cgspan import DEFECT_RUNS, fuzz_database  # noqa: E402

SUPPORTS = (1, 2, 3)


def codes(patterns) -> set[tuple]:
    return {tuple(map(tuple, p.code)) for p in patterns}


def main(n_seeds: int) -> int:
    seeds = range(n_seeds)
    failing = set()
    extra = set()
    for seed in seeds:
        db = fuzz_database(seed)
        for sup in SUPPORTS:
            oracle = codes(filter_closed(mine_frequent(db, MiningConfig(min_support=sup)), db))
            if codes(mine_closed(db, MiningConfig(min_support=sup, mode="closed"))) != oracle:
                failing.add((seed, sup))
            no_etf = MiningConfig(min_support=sup, mode="closed_no_etf")
            if not codes(mine_closed(db, no_etf)) <= oracle:
                extra.add((seed, sup))
    expected = {(s, sup) for s, sup in DEFECT_RUNS if s in seeds and sup in SUPPORTS}
    runs = len(seeds) * len(SUPPORTS)
    print(f"{runs} runs, {len(failing)} differ from the oracle: {sorted(failing)}")
    print(f"closed_no_etf runs that emit a pattern the oracle rejects: {sorted(extra)}")
    if failing != expected:
        print(f"new mismatches: {sorted(failing - expected)}")
        print(f"known defect runs now matching: {sorted(expected - failing)}")
    return 1 if failing != expected or extra else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 2000))
