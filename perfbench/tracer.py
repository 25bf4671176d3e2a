"""Spans around calls into nlspd, recorded from outside the library.

A span is one call into a layer's public function, named
``layer.function``, with its start, end, parent span and the id of the
dataset or command it served. Spans stay in memory until the run ends.
With tracing off, ``call`` is a plain function call.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

# Modules of the nlspd package whose public functions the workloads call.
LAYERS = ("simulator", "tomography", "modelfit", "povm", "numerics", "loss", "cli")


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None, **attrs):
        """Record one span; nested spans name it as their parent and inherit its op."""
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        if op is None and self._stack:
            op = self.spans[self._stack[-1]]["op"]
        record = {
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "op": op,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end_ns"] = time.perf_counter_ns()

    def call(self, name: str, fn, *args, op: str | None = None, attrs=None, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, op, **(attrs or {})):
            return fn(*args, **kwargs)


def span_cost_s(calls: int = 2000, repeats: int = 5) -> float:
    """Seconds one span adds to the call it wraps: the median over repeats."""

    def noop():
        return None

    costs = []
    for _ in range(repeats):
        tracer = Tracer(enabled=True)
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            tracer.call("bench.noop", noop)
        costs.append((time.perf_counter() - started - plain) / calls)
    return max(0.0, statistics.median(costs))


def _duration_ns(span: dict) -> int:
    return span["end_ns"] - span["start_ns"]


def _layer(name: str) -> str | None:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def layer_self_seconds(spans: list[dict]) -> dict:
    """Self time per layer: span durations minus the time their children cover."""
    child_ns = {}
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] = child_ns.get(span["parent"], 0) + _duration_ns(span)
    out = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = _layer(span["name"])
        if layer is not None:
            out[layer] += (_duration_ns(span) - child_ns.get(span["id"], 0)) / 1e9
    return out


def layer_coverage_seconds(spans: list[dict], start_ns: int, end_ns: int) -> float:
    """Seconds of [start_ns, end_ns] inside outermost layer spans."""
    by_id = {span["id"]: span for span in spans}

    def outermost(span):
        parent = span["parent"]
        while parent is not None:
            if _layer(by_id[parent]["name"]) is not None:
                return False
            parent = by_id[parent]["parent"]
        return True

    covered = 0
    for span in spans:
        if _layer(span["name"]) is None or not outermost(span):
            continue
        lo, hi = max(span["start_ns"], start_ns), min(span["end_ns"], end_ns)
        covered += max(0, hi - lo)
    return covered / 1e9


def call_stats(spans: list[dict], name: str) -> dict:
    """Calls, summed seconds and the longest call, over spans named ``name``."""
    durations = [_duration_ns(s) for s in spans if s["name"] == name]
    return {
        "calls": len(durations),
        "busy_s": sum(durations) / 1e9,
        "max_ms": max(durations, default=0) / 1e6,
    }


def attr_values(spans: list[dict], name: str, key: str) -> list:
    return [s[key] for s in spans if s["name"] == name and key in s]
