"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the package: ``install`` swaps each traced
drivekit function for a wrapper in every drivekit module namespace that binds
it, so calls made through ``from .x import f`` are traced too. Each span
records its name, start, end, parent span and run id; counters are bumped at
the same boundaries from the call's arguments and result. Nothing is written
until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import pkgutil
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float
    run_id: str


def self_times(spans) -> dict:
    """Self time per span id: the span's duration minus the time its direct
    children cover. Children of one span never overlap (one thread), so the
    covered time is the sum of their durations."""
    covered = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return {span.id: (span.end - span.start) - covered[span.id] for span in spans}


def root_of(spans) -> dict:
    """Root span id for every span id."""
    parent = {span.id: span.parent for span in spans}
    roots = {}
    for span in spans:
        node = span.id
        while parent[node] >= 0:
            node = parent[node]
        roots[span.id] = node
    return roots


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._next_id = 0
        self._patched = []

    def span(self, name: str):
        return _SpanContext(self, name)

    def _open(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(span_id, parent, name, start, end, self.run_id))

    def wrap(self, name: str, fn, probe=None):
        """Wrapper that records a span named ``name`` around each call made
        inside an open span, and feeds (args, kwargs, result) to ``probe``
        for counters. Calls outside every span (the benchmark's own checks)
        are not traced."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span_id = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._close(span_id, name, start, end)
            if probe is not None:
                probe(self.counters, args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def install(self, targets: dict) -> None:
        """Trace ``targets``: {(module name, function name): probe or None}.
        Every attribute of a drivekit module bound to the original function
        is rebound to the wrapper."""
        # import every submodule first: one imported later would bind the
        # wrappers and keep them after uninstall
        package = importlib.import_module("drivekit")
        modules = [package] + [
            importlib.import_module(f"drivekit.{info.name}") for info in pkgutil.iter_modules(package.__path__)
        ]
        for (module_name, fn_name), probe in targets.items():
            original = getattr(sys.modules[module_name], fn_name)
            layer = module_name.rsplit(".", 1)[-1]
            wrapper = self.wrap(f"{layer}.{fn_name}", original, probe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict(), sort_keys=True))
                fh.write("\n")
            fh.write(json.dumps({"counters": dict(self.counters)}, sort_keys=True))
            fh.write("\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span_id = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.span_id, self.name, self.start, time.perf_counter())
        return False


def span_cost(calls: int = 20000) -> float:
    """Seconds a traced call costs over a plain one, measured on a no-op."""

    def noop():
        return None

    tr = Tracer("calibration")
    traced = tr.wrap("noop", noop)
    clock = time.perf_counter
    with tr.span("root"):
        t0 = clock()
        for _ in range(calls):
            traced()
        t1 = clock()
        for _ in range(calls):
            noop()
        t2 = clock()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / calls)


def summarize(spans) -> dict:
    """Per span name: calls and total self time."""
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span in spans:
        entry = out[span.name]
        entry["calls"] += 1
        entry["self_s"] += own[span.id]
    return dict(out)


def stage_balance(spans) -> list:
    """Per root span (one stage): its duration and the sum of the self times
    of every span under it. The two agree up to float rounding."""
    own = self_times(spans)
    roots = root_of(spans)
    sums = defaultdict(float)
    for span in spans:
        sums[roots[span.id]] += own[span.id]
    return [
        (span.name, span.end - span.start, sums[span.id])
        for span in spans
        if span.parent < 0
    ]
