"""In-memory span recording around calls into the package, and self times.

A ``Tracer`` wraps a function so that each call records one ``Span``: its
name, the layer it belongs to, start and end on ``time.perf_counter``, the
index of the enclosing span and the benchmark operation it ran in.  Spans are
only recorded between ``begin_op`` and ``end_op``, so the benchmark's own
untimed checks never show up.  Nothing here imports the package.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

ROOT_NAME = "op"
ROOT_LAYER = "bench"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, self.clock(), 0.0, parent, self._op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        self._stack.pop()
        return span

    def begin_op(self, op: int) -> None:
        if self._op is not None:
            raise RuntimeError("an operation is already open")
        self._op = op
        self._open(ROOT_NAME, ROOT_LAYER)

    def end_op(self) -> Span:
        span = self._close(self._stack[0])
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans left open at the end of an operation")
        self._op = None
        return span

    def wrap(self, fn, name: str, layer: str, annotate=None):
        """``fn`` recording a span per call; ``annotate(result, args, kwargs)``
        returns counts to attach to the span after the call has returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(index)
            if annotate is not None:
                span.attrs.update(annotate(result, args, kwargs))
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo = max(child.start, reach, span.start)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def span_cost(calls: int = 20_000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(noop, "noop", "calibration")
    tracer.begin_op(0)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - t0
    tracer.end_op()
    return max(traced - plain, 0.0) / calls
