"""Differential fuzz of frequent and closed mining over a fixed seed range.

For seeds 0 to N-1 (N = 2000 by default) at supports 1, 2 and 3, mines
``fuzz_database(seed)`` in all three modes, checks the frequent patterns
against a brute-force enumeration, and compares both closed modes with
one oracle filter over those frequent patterns. It exits 1 unless

- every ``frequent`` run finds exactly the patterns of that support among
  those ``conftest.brute_code_supports`` enumerates, once per seed. The
  closed oracle filters the miner's own frequent set, so it cannot see a
  pattern lost there;
- every ``closed`` run finds exactly the oracle's patterns;
- no ``closed_no_etf`` run emits a pattern outside the oracle set. That
  mode has no failure detection and may lose patterns, but early
  termination only prunes, so it never emits a pattern that is not closed.

The name keeps pytest from collecting it.

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
from conftest import brute_code_supports, key_set  # noqa: E402
from test_cgspan import fuzz_database  # noqa: E402

SUPPORTS = (1, 2, 3)


def main(n_seeds: int) -> int:
    seeds = range(n_seeds)
    wrong_frequent = set()
    failing = set()
    extra = set()
    for seed in seeds:
        db = fuzz_database(seed)
        brute = brute_code_supports(db)
        for sup in SUPPORTS:
            frequent = mine_frequent(db, MiningConfig(min_support=sup))
            if key_set(frequent) != {code for code, n in brute.items() if n >= sup}:
                wrong_frequent.add((seed, sup))
            oracle = key_set(filter_closed(frequent, db))
            if key_set(mine_closed(db, MiningConfig(min_support=sup, mode="closed"))) != oracle:
                failing.add((seed, sup))
            no_etf = MiningConfig(min_support=sup, mode="closed_no_etf")
            if not key_set(mine_closed(db, no_etf)) <= oracle:
                extra.add((seed, sup))
    runs = len(seeds) * len(SUPPORTS)
    print(f"{runs} runs, frequent runs that differ from brute force: {sorted(wrong_frequent)}")
    print(f"{runs} runs, {len(failing)} differ from the oracle: {sorted(failing)}")
    print(f"closed_no_etf runs that emit a pattern the oracle rejects: {sorted(extra)}")
    return 1 if wrong_frequent or failing or extra else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 2000))
