"""In-memory spans and counters for the traced benchmark pass.

A span records its name, start, end, parent span and spec id.  Spans are kept
in memory and written out once, when the run ends.  A span's *self time* is
its duration minus the durations of its direct children; summing self time by
name gives the per-layer breakdown.  :data:`NULL_TRACER` is the untraced
stand-in: every call on it is a no-op, so the timed flows run unchanged code
with tracing off.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Optional


class Span:
    """One timed interval at a layer boundary."""

    __slots__ = ("name", "start", "end", "parent", "spec")

    def __init__(self, name: str, start: float, parent: Optional[int], spec: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.spec = spec


class _Scope:
    """Context manager that closes one span; ``as`` yields the span itself,
    so a caller can rename it once the outcome is known (cache hit or miss)."""

    __slots__ = ("_tracer", "_span", "_index")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        stack = tracer._stack
        self._index = len(tracer.spans)
        self._span = Span(name, time.perf_counter(), stack[-1] if stack else None, tracer.spec)
        tracer.spans.append(self._span)
        stack.append(self._index)

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info) -> bool:
        self._span.end = time.perf_counter()
        self._tracer._stack.pop()
        return False


class Tracer:
    """Records spans, counters and samples; nothing is written until :meth:`to_json`."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.spec: Optional[int] = None
        self._stack: List[int] = []

    def span(self, name: str) -> _Scope:
        return _Scope(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def self_times(self) -> Dict[str, float]:
        """Total self time by span name: duration minus direct children's."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        totals: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span.name] += span.end - span.start - children[index]
        return dict(totals)

    def to_json(self) -> List[list]:
        """Spans as ``[name, start, end, parent, spec]`` rows, starts relative to the first."""
        origin = self.spans[0].start if self.spans else 0.0
        return [
            [s.name, s.start - origin, s.end - origin, s.parent, s.spec] for s in self.spans
        ]


class _NullScope:
    __slots__ = ("name",)

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


class NullTracer:
    """Tracing off: spans, counters and samples cost one call and record nothing."""

    enabled = False
    spec: Optional[int] = None

    def __init__(self) -> None:
        self._scope = _NullScope()

    def span(self, name: str) -> _NullScope:
        return self._scope

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def sample(self, name: str, value: float) -> None:
        pass


NULL_TRACER = NullTracer()
