"""One SHA-256 over closed mining's output and every CGHT lookup it makes.

For seeds 0 to N-1 (N = 600 by default), supports 1, 2 and 3 and both
closed modes, mines ``fuzz_database(seed)`` with ``mine_closed`` and feeds
into one digest, run by run:

- every emitted pattern's code, support, occurrence, containing graphs (as
  a list, whatever sequence type the pattern holds) and discovery index, in
  output order;
- the run's ``MiningStats``;
- every ``early_termination`` result, in call order, as ``(terminate,
  record.pattern.discovery_index, rho)``, read from ``conftest.recording``'s
  ``lookup`` events. Only mode ``closed_no_etf`` makes lookups; mode
  ``closed`` contributes its patterns and counters.

Two trees that print the same digest make the same lookups with the same
answers and mine the same patterns with the same counters. Run it in each
tree and compare the printed lines. ``test_cgspan.py`` pins the digest of
the first 100 seeds, and the CI job ``lookup-digest`` the line for N = 1000.

Usage: python tests/lookup_digest.py [N]
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from graphmine.gspan import MiningConfig, MiningStats  # noqa: E402
from conftest import calls, fuzz_database, record_run  # noqa: E402


def lookup_digest(n_seeds: int) -> tuple[int, int, str]:
    """Runs, covering lookups and the hex digest over seeds 0..n_seeds-1."""
    digest = hashlib.sha256()
    runs = hits = 0
    for seed in range(n_seeds):
        db = fuzz_database(seed)
        for sup in (1, 2, 3):
            for mode in ("closed", "closed_no_etf"):
                stats = MiningStats()
                config = MiningConfig(min_support=sup, mode=mode)
                events, mined = record_run(db, config, stats)
                patterns = [
                    (
                        tuple(map(tuple, p.code)),
                        p.support,
                        p.occurrence,
                        list(p.containing_graphs),
                        p.discovery_index,
                    )
                    for p in mined
                ]
                lookups = [
                    (terminate, record and record.pattern.discovery_index, rho)
                    for _, (_, (terminate, record, rho)) in calls(events, "lookup")
                ]
                run = (seed, sup, mode, patterns, stats.as_dict(), lookups)
                digest.update(repr(run).encode())
                runs += 1
                hits += sum(t for t, _, _ in lookups)
    return runs, hits, digest.hexdigest()


def main(n_seeds: int) -> int:
    runs, hits, hexdigest = lookup_digest(n_seeds)
    print(f"{runs} runs, {hits} covering lookups, sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 600))
