"""Differential fuzz of frequent and closed mining over a fixed seed range.

For seeds 0 to N-1 (N = 2000 by default) at supports 1, 2 and 3, judges
``fuzz_database(seed)`` with ``conftest.closed_verdict``, which mines it in
all three modes, and checks the frequent patterns against a brute-force
enumeration. It exits 1 unless

- every ``frequent`` run finds exactly the patterns of that support among
  those ``conftest.brute_code_supports`` enumerates, once per seed. The
  closed oracle filters the miner's own frequent set, so it cannot see a
  pattern lost there;
- every ``closed`` run emits exactly the oracle's closed subset of the
  frequent list, in its order, and visits what ``frequent`` visits;
- every ``closed_no_etf`` run emits a subsequence of ``closed``'s list.
  That mode has no failure detection and may lose patterns, but early
  termination only prunes, so it never emits a pattern that is not closed.

It also prints how many ``closed_no_etf`` runs lose a closed pattern, and
how many patterns they lose in all; losses do not change the exit status.

The name keeps pytest from collecting it.

Usage: python tests/fuzz_range.py [N]
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from conftest import brute_code_supports, closed_verdict, fuzz_database  # noqa: E402

SUPPORTS = (1, 2, 3)


def main(n_seeds: int) -> int:
    seeds = range(n_seeds)
    wrong_frequent = set()
    failing = set()
    extra = set()
    lossy = lost = 0
    for seed in seeds:
        db = fuzz_database(seed)
        brute = brute_code_supports(db)
        for sup in SUPPORTS:
            verdict = closed_verdict(db, sup)
            if set(verdict.frequent) != {code for code, n in brute.items() if n >= sup}:
                wrong_frequent.add((seed, sup))
            if not verdict.closed_ok:
                failing.add((seed, sup))
            if not verdict.no_etf_ok:
                extra.add((seed, sup))
            lossy += bool(verdict.lost)
            lost += len(verdict.lost)
    runs = len(seeds) * len(SUPPORTS)
    print(f"{runs} runs, frequent runs that differ from brute force: {sorted(wrong_frequent)}")
    print(f"{runs} runs, {len(failing)} differ from the oracle: {sorted(failing)}")
    print(f"closed_no_etf runs that emit a pattern outside closed's list or order: {sorted(extra)}")
    print(f"closed_no_etf runs that lose a closed pattern: {lossy}, patterns lost: {lost}")
    return 1 if wrong_frequent or failing or extra else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 2000))
