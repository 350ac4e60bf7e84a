#!/usr/bin/env python3
"""Seeded mining benchmark: load time and parse-to-pattern-file job time.

    python3 perfbench/run.py --workload medium --seed 3 --seconds 30 --trace 0

For one workload the benchmark generates the dataset from the seed (see
``workloads.py``), writes it to a file, and times:

- the load, ``graphmine.parse_dataset`` on that file, repeated
  ``SETUP_REPEATS`` times (``setup_s`` is the median);
- one job per mining mode: ``mine_frequent`` or ``mine_closed``, then
  ``write_patterns`` to a pattern file. This is ``graphmine mine --output``
  without the argument parsing.

Jobs run one after another in a single thread, modes in turn, for
``--seconds`` and until every mode has ``MIN_SAMPLES`` jobs. Before each job
the previous job's results are released and ``gc.collect()`` runs, so every
job starts from the same heap; the collector stays enabled while it runs.
Every reported time is calibrated against the machine's current speed (see
``calibration_s``); the raw median wall time of each mode is printed too.

Correctness: each mode's first job, run untimed, is the reference. The
frequent and closed references must match the pattern sets recorded in
``EXPECTED``, and the closed reference must equal the brute-force oracle's
closed subset of the frequent reference. ``closed_no_etf`` drops closed
patterns by design, so its oracle mismatch is reported, not failed. Every
later job's pattern file must equal its mode's reference byte for byte; a
job that raises or differs counts as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced jobs and reports per-layer metrics from the spans of
``tracing.py``; ``trace.overhead_pct`` compares the two. The last line of
standard output is one JSON object. Without ``--workload`` or ``--trace``
every workload and both passes run and the last line collects all results.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

from workloads import WORKLOADS, dataset_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MODES = ("frequent", "closed", "closed_no_etf")
SETUP_REPEATS = 21
# The tail is the highest percentile with at least ten samples beyond it.
TAIL_BEYOND = 10
MIN_SAMPLES = TAIL_BEYOND + 1
MIN_TRACED = 3
# A run gives up, without a result, once this many jobs have failed.
MAX_FAILED = 10
# Calibration: see calibration_s.
CALIBRATION_STEPS = 85_000
REFERENCE_CALIBRATION_S = 0.04
# Wrapped spans must cover this share of traced job time.
COVERAGE_PCT = 90.0

# Pattern count and digest of the sorted (code, support, occurrence)
# triples. Both are invariant under the seed's relabelling.
EXPECTED = {
    "medium": {
        "frequent": (171, "29090e408f45a43d80de54902c47c6bc2b8ca5c3421f489eda1730b9ab1960d0"),
        "closed": (112, "767c2dcdf8f05d512827f8ebce7c98efd64baa7bb76387bde6e55e1823212e23"),
    },
    "wide": {
        "frequent": (42, "25be7e16841efa2d65789b1c0a356b95d7821b649aa4a6fb5d36955f39b9f810"),
        "closed": (39, "4da674299ccca48bec5c538321a242862665b54bf5ff0b0f60107cb4fe38388f"),
    },
    "dense": {
        "frequent": (66, "f121a703d8bb7ed0d6a6a00256b385eeeb0f429a8f89d3349cc4718814bb61b8"),
        "closed": (66, "f121a703d8bb7ed0d6a6a00256b385eeeb0f429a8f89d3349cc4718814bb61b8"),
    },
}


def _load_package():
    """Import the package from the checkout's src/, never from elsewhere."""
    if not (SRC / "graphmine" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'graphmine'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import graphmine

    if Path(graphmine.__file__).resolve().parent != SRC / "graphmine":
        sys.exit(f"error: imported graphmine from {graphmine.__file__}, not from {SRC}")
    return graphmine


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment() -> dict:
    return {
        "python": sys.version,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith(("_s", "_s.tail")):
        return "s"
    if name.endswith(("_ratio", "_over_frequent")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop of tuple, dict, list and integer
    work, the operations mining spends its time on.

    The machine's speed drifts by tens of percent over minutes when other
    tenants load it, and the loop slows with it. Each timed step runs right
    after the loop, and its time is reported as ``wall * REFERENCE_CALIBRATION_S
    / calibration_s()``: seconds on a machine where the loop takes
    ``REFERENCE_CALIBRATION_S``. The collector is off during the loop, so the
    program's heap cannot change the loop's cost.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        acc = 0
        for i in range(CALIBRATION_STEPS):
            table[(i, i & 7)] = [i, acc]
            acc += i * i % 7
        return time.perf_counter() - start
    finally:
        gc.enable()


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with
    ``TAIL_BEYOND`` samples above it."""
    rank = len(samples) - TAIL_BEYOND
    return sorted(samples)[rank - 1], 100.0 * rank / len(samples)


class Bench:
    """One workload's dataset, references and jobs in a temporary directory."""

    def __init__(self, gm, workload, seed: int, workdir: Path):
        self.gm = gm
        self.workload = workload
        self.dataset = workdir / "dataset.txt"
        self.dataset.write_text(dataset_text(workload, seed), encoding="utf-8")
        self.out = workdir / "patterns.txt"
        self.db = None
        self.refs: dict[str, bytes] = {}
        self.info: dict = {}
        self.correct = True

    def setup_s(self) -> float:
        times = []
        for _ in range(SETUP_REPEATS):
            self.db = None
            gc.collect()
            scale = REFERENCE_CALIBRATION_S / calibration_s()
            start = time.perf_counter()
            self.db = self.gm.parse_dataset(self.dataset)
            times.append((time.perf_counter() - start) * scale)
        return statistics.median(times)

    def miner(self, mode: str):
        return self.gm.mine_frequent if mode == "frequent" else self.gm.mine_closed

    def job(self, mode: str, mine=None, write=None):
        """Mine and write one pattern file; (seconds, stats, patterns)."""
        gm = self.gm
        mine = mine or self.miner(mode)
        write = write or gm.write_patterns
        stats = gm.MiningStats()
        start = time.perf_counter()
        patterns = mine(self.db, gm.MiningConfig(min_support=self.workload.min_support, mode=mode), stats)
        with open(self.out, "w", encoding="utf-8") as fh:
            write(patterns, self.db, fh)
        return time.perf_counter() - start, stats, patterns

    def make_references(self, peak_modes=()) -> dict[str, float]:
        """Run each mode once, untimed, and check the results.

        Returns the ``tracemalloc`` peak in MiB of each job in ``peak_modes``.
        """
        oracle_closed = None
        keys = {}
        peaks = {}
        for mode in MODES:
            gc.collect()
            if mode in peak_modes:
                tracemalloc.start()
            try:
                _, _, patterns = self.job(mode)
                if mode in peak_modes:
                    peaks[mode] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            self.refs[mode] = self.out.read_bytes()
            keys[mode] = {tuple(map(tuple, p.code)) for p in patterns}
            triples = sorted((tuple(map(tuple, p.code)), p.support, p.occurrence) for p in patterns)
            digest = hashlib.sha256(repr(triples).encode()).hexdigest()
            self.info[f"{mode}.patterns"] = len(patterns)
            self.info[f"{mode}.pattern_digest"] = digest
            expected = EXPECTED[self.workload.name].get(mode)
            if expected is not None and expected != (len(patterns), digest):
                print(f"FAIL {mode}: {len(patterns)} patterns, digest {digest}; expected {expected}", file=sys.stderr)
                self.correct = False
            if mode == "frequent":
                oracle_closed = {
                    tuple(map(tuple, p.code)) for p in self.gm.filter_closed(patterns, self.db)
                }
            del patterns
        for mode in ("closed", "closed_no_etf"):
            missing = len(oracle_closed - keys[mode])
            extra = len(keys[mode] - oracle_closed)
            self.info[f"{mode}.oracle_missing"] = missing
            self.info[f"{mode}.oracle_extra"] = extra
        verdict = self.info["closed.oracle_missing"] == self.info["closed.oracle_extra"] == 0
        self.info["closed.oracle_verdict"] = "match" if verdict else "MISMATCH"
        self.correct &= verdict
        return peaks

    def checked_job(self, mode: str, job=None):
        """A job whose output is compared with the reference.

        Returns (wall seconds, stats, calibration scale), or None if the job
        failed.
        """
        gc.collect()
        scale = REFERENCE_CALIBRATION_S / calibration_s()
        try:
            seconds, stats, _ = job() if job else self.job(mode)
            same = self.out.read_bytes() == self.refs[mode]
        except Exception:
            traceback.print_exc()
            return None
        if not same:
            print(f"FAIL {mode}: pattern file differs from the reference", file=sys.stderr)
            return None
        return seconds, stats, scale

    def traced_job(self, mode: str):
        """A checked job run under a fresh tracer; (result, tracer)."""
        from tracing import JOB, SEARCH, Tracer

        tracer = Tracer()
        mine = tracer.wrap(self.miner(mode), SEARCH)
        write = tracer.wrap(self.gm.write_patterns, "datasets.write")
        root = tracer.wrap(self.job, JOB)

        def job():
            with tracer.installed():
                return root(mode, mine, write)

        return self.checked_job(mode, job), tracer


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, int, int]:
    metrics = {"setup_s": bench.setup_s()}
    for mode, peak in bench.make_references(peak_modes=("frequent", "closed")).items():
        metrics[f"{mode}_peak_mib"] = peak

    samples = {m: [] for m in MODES}
    wall = {m: [] for m in MODES}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while failed < MAX_FAILED and (
        time.perf_counter() < deadline or min(map(len, samples.values())) < MIN_SAMPLES
    ):
        for mode in MODES:
            attempted += 1
            result = bench.checked_job(mode)
            if result is None:
                failed += 1
            else:
                samples[mode].append(result[0] * result[2])
                wall[mode].append(result[0])
    for mode in MODES:
        if len(samples[mode]) < MIN_SAMPLES:
            sys.exit(f"error: only {len(samples[mode])} {mode} jobs succeeded")
        metrics[f"{mode}_s"] = statistics.median(samples[mode])
        metrics[f"{mode}_s.tail"], pct = tail(samples[mode])
        bench.info[f"{mode}.samples"] = len(samples[mode])
        bench.info[f"{mode}.tail_percentile"] = pct
        bench.info[f"{mode}.wall_s"] = statistics.median(wall[mode])
    metrics["closed_over_frequent"] = metrics["closed_s"] / metrics["frequent_s"]
    bench.info["failed_share"] = failed / attempted
    return metrics, attempted, failed


def per_layer(bench: Bench, seconds: float) -> tuple[dict, int, int]:
    from tracing import layer_metrics

    metrics = {"datasets.parse_s": bench.setup_s()}
    bench.make_references()

    plain = {m: [] for m in MODES}
    traced = {m: [] for m in MODES}
    layers = {m: [] for m in MODES}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while failed < MAX_FAILED and (
        time.perf_counter() < deadline or min(map(len, traced.values())) < MIN_TRACED
    ):
        for mode in MODES:
            attempted += 2
            result = bench.checked_job(mode)
            if result is None:
                failed += 1
            else:
                plain[mode].append(result[0] * result[2])
            result, tracer = bench.traced_job(mode)
            if result is None:
                failed += 1
            else:
                traced[mode].append(result[0] * result[2])
                layers[mode].append(layer_metrics(tracer.spans, mode, result[1], result[2]))
    bench.info["trace.unwrapped"] = tracer.unwrapped
    for mode in MODES:
        if len(traced[mode]) < MIN_TRACED or len(plain[mode]) < MIN_TRACED:
            sys.exit(f"error: too few {mode} jobs succeeded")
        for key in layers[mode][0]:
            metrics[f"{mode}.{key}"] = statistics.median_low(m[key] for m in layers[mode])
        metrics[f"{mode}.datasets.bytes_written"] = len(bench.refs[mode])
        untraced_s = statistics.median(plain[mode])
        metrics[f"{mode}.trace.overhead_pct"] = 100.0 * (statistics.median(traced[mode]) / untraced_s - 1.0)
        bench.info[f"{mode}.samples"] = len(plain[mode])
        bench.info[f"{mode}.traced_samples"] = len(traced[mode])
        if metrics[f"{mode}.trace.coverage_pct"] < COVERAGE_PCT:
            print(f"WARN {mode}: spans cover only {metrics[f'{mode}.trace.coverage_pct']:.1f}% of traced job time",
                  file=sys.stderr)
    return metrics, attempted, failed


def run(gm, name: str, seed: int, seconds: float, trace: int) -> dict:
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        bench = Bench(gm, WORKLOADS[name], seed, Path(tmp))
        measure = per_layer if trace else end_to_end
        metrics, attempted, failed = measure(bench, seconds)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": bench.correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "info": bench.info,
    }


def report(result: dict) -> None:
    print(f"== workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    for name, value in result["info"].items():
        print(f"  {name}: {value}")
    print(f"  correct: {result['correct']}  attempted: {result['attempted']}  failed: {result['failed']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help="medium, wide, dense or all (default all)")
    ap.add_argument("--seed", type=int, default=None, help="default: each workload's generator seed")
    ap.add_argument("--seconds", type=float, default=30.0, help="timed seconds per run (default 30)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None, help="default: both passes")
    args = ap.parse_args(argv)

    gm = _load_package()
    if args.workload != "all" and args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    passes = [0, 1] if args.trace is None else [args.trace]
    env = environment()
    results = []
    for name in names:
        seed = WORKLOADS[name].generator_seed if args.seed is None else args.seed
        for trace in passes:
            result = run(gm, name, seed, args.seconds, trace)
            report(result)
            results.append(result)
    print("# environment " + json.dumps(env))
    if len(results) == 1:
        r = results[0]
        print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    print(json.dumps({"environment": env, "results": results}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
