"""Span recorder for the traced run.

Spans are recorded from the benchmark's side of each layer boundary: the
traced run replaces a module's reference to a public function with a timing
wrapper (and puts the original back afterwards), so the library itself is
unchanged.  A span holds a name, start and end (``perf_counter`` seconds),
the index of its parent span and the id of the instance it belongs to.
Spans stay in memory and are written out once, at the end of the run.

The run is single-threaded and spans nest, so a span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

GEOMETRY = "oracles.geometry_check"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    instance: int
    child_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.instance = -1
        self.muted = 0

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.instance))
        self._stack.append(len(self.spans) - 1)

    def close(self, keep_end: bool = False) -> None:
        span = self.spans[self._stack.pop()]
        if not keep_end:
            span.end = time.perf_counter()
        if span.parent is not None:
            self.spans[span.parent].child_seconds += span.seconds

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code; it records even while
        wrappers are muted, but mutes the wrappers inside it."""
        self.open(name)
        self.muted += 1
        try:
            yield
        finally:
            self.muted -= 1
            self.close()

    @contextmanager
    def mute(self):
        self.muted += 1
        try:
            yield
        finally:
            self.muted -= 1

    @contextmanager
    def root(self, name: str, instance: int):
        """Top-level span of one instance; closes a geometry span left open."""
        self.instance = instance
        self.open(name)
        try:
            yield
        finally:
            top = self.spans[self._stack[-1]]
            if top.name == GEOMETRY:
                self.close(keep_end=True)
            self.close()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            if self.muted:
                return fn(*args, **kwargs)
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced

    def geometry_wrappers(self, pair_fn: Callable, exact_fn: Callable):
        """Wrappers that bracket the CLI's random-triangle-pair loop with one
        span: it opens at the first pair drawn and ends after the last exact
        intersection test, which is the loop's last library call."""

        def pair(*args):
            if not self.muted and (
                not self._stack or self.spans[self._stack[-1]].name != GEOMETRY
            ):
                self.open(GEOMETRY)
            return pair_fn(*args)

        def exact(*args):
            result = exact_fn(*args)
            if self._stack and self.spans[self._stack[-1]].name == GEOMETRY:
                self.spans[self._stack[-1]].end = time.perf_counter()
            return result

        return pair, exact

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """name -> (inclusive seconds, self seconds, calls)."""
        out: dict[str, tuple[float, float, int]] = {}
        for s in self.spans:
            inc, own, calls = out.get(s.name, (0.0, 0.0, 0))
            out[s.name] = (inc + s.seconds, own + s.self_seconds, calls + 1)
        return out

    def write(self, path: str) -> None:
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "instance": s.instance,
                "self_ms": s.self_seconds * 1e3,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


@contextmanager
def patched(rec: Recorder, lib):
    """Install the layer wrappers on the library's module attributes."""
    plan = [
        (lib.cli, "load_graph", "io.load"),
        (lib.cli, "load_order", "io.load"),
        (lib.cli, "recognize", "recognition.recognize"),
        (lib.cli, "recognize_linear_interval_order", "orders.recognize_lio"),
        (lib.cli, "geometric_search_realization", "oracles.geometric_search"),
        (lib.cli, "has_alternating_transitive_pair", "oracles.alternating_pair"),
        (lib.cli, "all_transitive_complements_extend", "oracles.complements_extend"),
        (lib.recognition, "realize", "recognition.realize"),
        (lib.recognition, "find_pattern", "graphs.find_pattern"),
        (lib.recognition, "orient_complement_by_ordering", "graphs.orient_complement"),
        (lib.recognition, "build_interval_representation", "orders.build_intervals"),
        (lib.orders, "build_interval_representation", "orders.build_intervals"),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in plan]
    try:
        for module, attr, name in plan:
            setattr(module, attr, rec.wrap(name, getattr(module, attr)))
        pair, exact = rec.geometry_wrappers(
            lib.cli.random_triangle_pair, lib.cli.exact_triangle_intersection
        )
        saved += [
            (lib.cli, "random_triangle_pair", lib.cli.random_triangle_pair),
            (lib.cli, "exact_triangle_intersection", lib.cli.exact_triangle_intersection),
        ]
        lib.cli.random_triangle_pair = pair
        lib.cli.exact_triangle_intersection = exact
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
