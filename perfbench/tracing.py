"""Per-layer spans of one mining job, recorded from outside the package.

The miners call their helpers through module globals (``gspan.is_min``,
``cgspan.early_termination``, ...) and ``ClosedGraphRecord.materialize``
through the class, so replacing those attributes with timing wrappers for
the length of one job sees every call without any tracing code in the
package. The cyclic collector is seen through ``gc.callbacks``.

A span is ``[name, parent index, start, end, info]``; ``info`` holds what
the wrapper kept of the return value for counting. Spans nest strictly, so a
span's self time is its duration minus the durations of its direct
children, and a layer's time excludes the collections that ran inside it:
those are reported once, under ``runtime``.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from contextlib import contextmanager

from graphmine import cgspan, gspan

JOB = "job"
SEARCH = "gspan.search"
GC_SPAN = "runtime.gc"


def _bucket_counts(exts: dict) -> tuple[int, int]:
    return len(exts), sum(map(len, exts.values()))


# (owner, attribute, span name, what to keep of the result)
_PATCHES = [
    (gspan, "pruned_view", "gspan.prune", None),
    (cgspan, "pruned_view", "gspan.prune", None),
    (gspan, "frequent_single_edges", "embeddings.seed", len),
    (cgspan, "frequent_single_edges", "embeddings.seed", len),
    (gspan, "rightmost_extensions", "embeddings.extend", _bucket_counts),
    (cgspan, "rightmost_extensions", "embeddings.extend", _bucket_counts),
    (gspan, "is_min", "dfscode.is_min", bool),
    (cgspan, "is_min", "dfscode.is_min", bool),
    (cgspan, "equivalent_occurrence", "embeddings.closure", None),
    (cgspan, "growth_permitted", "embeddings.growth_check", None),
    (cgspan, "early_termination", "cgspan.lookup", lambda r: r[0]),
    (cgspan.ClosedGraphRecord, "materialize", "cgspan.materialize", None),
    (cgspan, "add_closed_graph", "cgspan.insert", None),
    (cgspan, "detect_etf", "cgspan.etf_detect", bool),
    (cgspan, "reject_early_termination", "cgspan.reject", None),
]


class Tracer:
    """Collects the spans of one traced job."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        # Patch targets the package no longer has; their time shows as
        # lower coverage.
        self.unwrapped: list[str] = []

    def wrap(self, fn, name: str, keep=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if keep is not None:
                span[4] = keep(result)
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._stack.append(len(self.spans))
            self.spans.append([GC_SPAN, self._stack[-2], time.perf_counter(), 0.0, info["generation"]])
        else:
            self.spans[self._stack.pop()][3] = time.perf_counter()

    @contextmanager
    def installed(self):
        """Route the package's internal calls and the collector through spans."""
        present = [p for p in _PATCHES if hasattr(p[0], p[1])]
        self.unwrapped = [f"{p[0].__name__}.{p[1]}" for p in _PATCHES if p not in present]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in present]
        try:
            for owner, attr, name, keep in present:
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, keep))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], mode: str, stats, scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one job, keyed ``<layer>.<metric>``.

    ``spans`` are those of one job, under one root span named ``job``.
    ``*_s`` is a layer's time with the collections inside it taken out;
    ``*self_s`` also takes out the wrapped calls it made. Durations are
    multiplied by ``scale``.
    """
    n = len(spans)
    dur = [(s[3] - s[2]) * scale for s in spans]
    covered = [0.0] * n
    gc_inside = [0.0] * n
    for i in range(n - 1, -1, -1):
        p = spans[i][1]
        if p < 0:
            continue
        covered[p] += dur[i]
        gc_inside[p] += dur[i] if spans[i][0] == GC_SPAN else gc_inside[i]

    wall = defaultdict(float)
    time_s = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    truthy = defaultdict(int)
    roots = buckets = embeddings = gen2 = 0
    for i, (name, _, _, _, info) in enumerate(spans):
        wall[name] += dur[i]
        time_s[name] += dur[i] - gc_inside[i]
        self_s[name] += dur[i] - covered[i]
        calls[name] += 1
        if name == "embeddings.extend":
            buckets += info[0]
            embeddings += info[1]
        elif name == "embeddings.seed":
            roots += info
        elif name == GC_SPAN:
            gen2 += info == 2
        elif info:
            truthy[name] += 1

    m = {
        "datasets.write_s": time_s["datasets.write"],
        "gspan.prune_s": time_s["gspan.prune"],
        "gspan.self_s": self_s[SEARCH],
        "gspan.nodes_visited": stats.visited_nodes,
        "embeddings.seed_s": time_s["embeddings.seed"],
        "embeddings.extend_s": time_s["embeddings.extend"],
        "embeddings.extend_calls": calls["embeddings.extend"],
        "embeddings.embeddings_built": embeddings,
        # Every child expanded is one is_min call; the seeds are the rest.
        "embeddings.bucket_kept_ratio": _ratio(calls["dfscode.is_min"] - roots, buckets),
        "dfscode.is_min_s": time_s["dfscode.is_min"],
        "dfscode.is_min_calls": calls["dfscode.is_min"],
        "dfscode.is_min_pass_ratio": _ratio(truthy["dfscode.is_min"], calls["dfscode.is_min"]),
        "runtime.gc_s": time_s[GC_SPAN],
        "runtime.gc_gen2": gen2,
        "trace.coverage_pct": 100.0 * (1.0 - (self_s[JOB] + self_s[SEARCH]) / wall[JOB]),
    }
    if mode != "frequent":
        m.update({
            "embeddings.closure_s": time_s["embeddings.closure"],
            "embeddings.growth_check_s": time_s["embeddings.growth_check"],
            "embeddings.growth_check_calls": calls["embeddings.growth_check"],
            "cgspan.lookup_s": time_s["cgspan.lookup"],
            "cgspan.lookup_self_s": self_s["cgspan.lookup"],
            "cgspan.lookup_calls": calls["cgspan.lookup"],
            "cgspan.lookup_hit_ratio": _ratio(truthy["cgspan.lookup"], calls["cgspan.lookup"]),
            "cgspan.materialize_s": time_s["cgspan.materialize"],
            "cgspan.insert_s": time_s["cgspan.insert"],
            "cgspan.insert_calls": calls["cgspan.insert"],
            "cgspan.terminations_applied": stats.early_terminations_applied,
            "cgspan.terminations_rejected": stats.early_terminations_rejected,
            "cgspan.trie_size": stats.trie_size,
        })
    if mode == "closed":
        m.update({
            "cgspan.etf_detect_s": time_s["cgspan.etf_detect"],
            "cgspan.etf_register_ratio": _ratio(truthy["cgspan.etf_detect"], calls["cgspan.etf_detect"]),
            "cgspan.reject_s": time_s["cgspan.reject"],
        })
    return m
