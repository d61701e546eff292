"""Spans recorded by the benchmark around its calls into ramsey333.

A span covers one call from a benchmark file into a public function of a
ramsey333 module (named `<module>.<function>`), one child process the
benchmark spawns (`cli.spawn`), or one checked operation of the benchmark
itself (`bench.<kind>`).  Spans are kept in memory and written out once, when
the run ends.  Nothing inside `src/` is instrumented.

`Tracer` records; `NullTracer` has the same interface and records nothing,
so a workload runs the same code with tracing on and off.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter_ns


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None
    detail: object = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class NullTracer:
    """Tracing off: calls go straight through."""

    op: int | None = None

    @contextmanager
    def span(self, name, detail=None):
        yield

    def call(self, name, fn, *args, detail=None, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    """Tracing on: one Span per `span` block or `call`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, detail=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, 0, 0, parent, self.op, detail))
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[sid].start_ns = start
            self.spans[sid].end_ns = end

    def call(self, name, fn, *args, detail=None, **kwargs):
        with self.span(name, detail):
            return fn(*args, **kwargs)

    def dump(self, fh, source: str) -> None:
        """Append the spans to an open file as JSON lines tagged with `source`."""
        for s in self.spans:
            fh.write(json.dumps({"source": source, **asdict(s)}, default=str) + "\n")


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children.

    Spans of one tracer never overlap their siblings (one client, one thread),
    so the covered part is the sum of the children's durations.
    """
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def layer_table(spans: list[Span], rounds: int) -> list[tuple[str, float, float, float]]:
    """Per layer: (layer, self seconds per round, calls per round, per-call median s)."""
    own = self_seconds(spans)
    self_s: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        layer = s.name.split(".", 1)[0]
        self_s[layer] += own[s.id]
        durations[layer].append(s.seconds)
    rows = [
        (layer, self_s[layer] / rounds, len(durations[layer]) / rounds,
         statistics.median(durations[layer]))
        for layer in durations
    ]
    return sorted(rows, key=lambda row: -row[1])
