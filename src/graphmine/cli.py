"""Batch command line: mine patterns, check a run against the oracle,
benchmark frequent vs closed mining across a support sweep."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Sequence

from .cgspan import mine_closed
from .datasets import DatasetError, parse_dataset, write_patterns
from .gspan import MiningConfig, MiningStats, mine_frequent
from .oracle import verify_run

_CLI_MODES = ("frequent", "closed", "closed-no-etf")


def _support(text: str) -> float | int:
    """A value with a decimal point or exponent is a fraction, a bare
    integer an absolute graph count; ``MiningConfig`` checks the range."""
    try:
        if "." in text or "e" in text.lower():
            value: float | int = float(text)
        else:
            value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a support value: {text!r}")
    try:
        MiningConfig(min_support=value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _support_list(text: str) -> list[float | int]:
    supports = [_support(part) for part in text.split(",") if part]
    if not supports:
        raise argparse.ArgumentTypeError(f"no support value in {text!r}")
    return supports


def _load(path: str):
    try:
        return parse_dataset(path)
    except (DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _open_output(path: str, newline: str | None = None):
    """An output file opened for writing, or None after an ``error:`` line.

    Commands open their destination before mining, so a bad path fails fast.
    """
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _mine(db, config: MiningConfig, stats: MiningStats | None = None):
    if config.mode == "frequent":
        return mine_frequent(db, config, stats)
    return mine_closed(db, config, stats)


def _cmd_mine(args) -> int:
    db = _load(args.input)
    if db is None:
        return 1
    out = _open_output(args.output) if args.output else sys.stdout
    if out is None:
        return 1
    try:
        config = MiningConfig(min_support=args.min_support, mode=args.mode.replace("-", "_"))
        stats = MiningStats()
        start = time.perf_counter()
        patterns = _mine(db, config, stats)
        wall = time.perf_counter() - start
        write_patterns(patterns, db, out)
    finally:
        if args.output:
            out.close()
    if args.stats:
        payload = {"schema": 1, **stats.as_dict(), "wall_secs": wall}
        print(json.dumps(payload), file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    db = _load(args.input)
    if db is None:
        return 1
    config = MiningConfig(min_support=args.min_support, mode=args.mode.replace("-", "_"))
    report = verify_run(db, config)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    db = _load(args.input)
    if db is None:
        return 1
    out = _open_output(args.output, newline="") if args.output else sys.stdout
    if out is None:
        return 1
    try:
        rows = []
        for sup in args.supports:
            t0 = time.perf_counter()
            frequent = mine_frequent(db, MiningConfig(min_support=sup, mode="frequent"))
            t1 = time.perf_counter()
            closed = mine_closed(db, MiningConfig(min_support=sup, mode="closed"))
            t2 = time.perf_counter()
            fsecs, csecs = t1 - t0, t2 - t1
            rows.append(
                (
                    sup,
                    len(frequent),
                    len(closed),
                    f"{len(closed) / len(frequent):.4f}" if frequent else "",
                    f"{fsecs:.6f}",
                    f"{csecs:.6f}",
                    f"{csecs / fsecs:.4f}" if fsecs > 0 else "",
                )
            )
        writer = csv.writer(out)
        writer.writerow(
            (
                "min_support",
                "frequent_count",
                "closed_count",
                "closed_ratio",
                "frequent_secs",
                "closed_secs",
                "ratio_secs",
            )
        )
        writer.writerows(rows)
    finally:
        if args.output:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphmine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine frequent or closed patterns")
    mine.add_argument("--input", required=True, help="dataset file")
    mine.add_argument("--min-support", type=_support, required=True)
    mine.add_argument("--mode", choices=_CLI_MODES, default="closed")
    mine.add_argument("--output", help="pattern file destination (default stdout)")
    mine.add_argument("--stats", action="store_true", help="emit run statistics as JSON on stderr")
    mine.set_defaults(func=_cmd_mine)

    verify = sub.add_parser("verify", help="compare a closed run against the brute-force oracle")
    verify.add_argument("--input", required=True)
    verify.add_argument("--min-support", type=_support, required=True)
    verify.add_argument("--mode", choices=("closed", "closed-no-etf"), default="closed")
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="time frequent vs closed mining across supports")
    bench.add_argument("--input", required=True)
    bench.add_argument(
        "--supports",
        type=_support_list,
        required=True,
        help="comma-separated support values, e.g. 0.1,0.08,0.05",
    )
    bench.add_argument("--output", help="CSV destination (default stdout)")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
