"""Call timing, in-memory spans and the small statistics the benchmark needs.

``Timer`` times every public call the benchmark makes into the package
(``perf_counter_ns`` around the call, after a ``gc.collect()``) and sums the
durations per ``(call name, instance)``.  ``Tracer`` does the same and also
keeps one span per call, plus one span per instance that parents them; the
spans stay in memory until the run writes them out.  A call name is
``<layer>.<what>``, where the layer is the package module called.
"""

import gc
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Timer:
    """Untraced mode: per-call durations only."""

    def __init__(self, yardstick=None):
        self.ns = defaultdict(int)  # (name, instance index) -> summed ns
        self.instance = None
        self.yardstick = yardstick  # reference.Yardstick sampled between calls

    @contextmanager
    def instance_scope(self, index: int, **attrs):
        self.instance = index
        try:
            yield
        finally:
            self.instance = None

    def call(self, name: str, fn, *args, **kwargs):
        if self.yardstick is not None:
            self.yardstick.sample_if_due()
        gc.collect()
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter_ns()
        self.ns[name, self.instance] += t1 - t0
        self._record(name, t0, t1)
        return out

    def _record(self, name, start, end):
        pass

    def total_ns(self) -> int:
        return sum(self.ns.values())


class Tracer(Timer):
    """Traced mode: every call also becomes a span with a parent.

    A span is a dict with ``id``, ``name``, ``start_ns``, ``end_ns``,
    ``parent`` (span id or None) and ``instance`` (the id of the instance
    span it belongs to).
    """

    def __init__(self, spans: list, pass_index: int):
        super().__init__()
        self.spans = spans
        self.pass_index = pass_index
        self._open = None

    @contextmanager
    def instance_scope(self, index: int, **attrs):
        span = {"id": len(self.spans), "name": "bench.instance",
                "start_ns": time.perf_counter_ns(), "end_ns": None,
                "parent": None, "pass": self.pass_index, "index": index,
                **attrs}
        span["instance"] = span["id"]
        self.spans.append(span)
        self._open = span
        self.instance = index
        try:
            yield
        finally:
            span["end_ns"] = time.perf_counter_ns()
            self._open = None
            self.instance = None

    def _record(self, name, start, end):
        parent = self._open
        self.spans.append({
            "id": len(self.spans), "name": name, "start_ns": start,
            "end_ns": end, "parent": parent and parent["id"],
            "instance": parent and parent["instance"],
            "pass": self.pass_index})


def self_times(spans) -> dict:
    """Self time per layer, in ns: each span's duration minus the part of
    its interval that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    out = defaultdict(int)
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        cursor = lo
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, cursor), min(b, hi)
            if b > a:
                covered += b - a
                cursor = b
        out[s["name"].split(".", 1)[0]] += (hi - lo) - covered
    return dict(out)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x) over the points with
    positive coordinates; 0.0 when fewer than two distinct x remain."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys)
           if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    return statistics.linear_regression(*zip(*pts)).slope


def geomean(values) -> float:
    vals = [v for v in values if v > 0]
    return statistics.geometric_mean(vals) if vals else 0.0
