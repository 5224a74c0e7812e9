"""In-memory spans around the calls the ledger makes into each layer.

A span is ``(name, start, end, parent, trace)``; spans opened while
another is open become its children, and all spans of one operation share
a trace id (``<workload>#<op index>``).  Nothing is written until
:meth:`Tracer.dump` — the traced run keeps spans in a list.  A layer's
*self time* is its span minus the part of that interval its children
cover, so nested layers (``ingest_frames`` over ``apply_sample_batch`` and
``append_bodies``) are not counted twice.

:class:`NullTracer` has the same surface and records nothing; driving the
same calls through it gives the untraced wall time the tracing overhead
is measured against.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any


@dataclass
class Span:
    id: int
    name: str
    trace: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    """Context manager for one span (a class, to keep overhead low)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        stack = tracer._stack
        self._span = Span(
            id=len(tracer.spans),
            name=name,
            trace=tracer.trace_id,
            parent=stack[-1].id if stack else None,
            start=0.0,
        )

    def __enter__(self) -> Span:
        tracer = self._tracer
        tracer.spans.append(self._span)
        tracer._stack.append(self._span)
        self._span.start = tracer._clock()
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._span.end = self._tracer._clock()
        self._tracer._stack.pop()


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.trace_id = ""
        self._stack: list[Span] = []
        self._clock = clock

    def operation(self, workload: str, index: int) -> None:
        """Name the trace that spans opened from now on belong to."""
        self.trace_id = f"{workload}#{index}"

    def span(self, name: str) -> _OpenSpan:
        return _OpenSpan(self, name)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with _OpenSpan(self, name):
                return fn(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        return [
            span.duration - _covered(span, children.get(span.id, ()))
            for span in self.spans
        ]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and total self time."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "total": 0.0, "self": 0.0})
            row["calls"] += 1
            row["total"] += span.duration
            row["self"] += selfs[span.id]
        return out

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == name]

    def dump(self, path: Path, extra: dict[str, Any] | None = None) -> None:
        """Write every span (times relative to the first) as JSON."""
        origin = self.spans[0].start if self.spans else 0.0
        selfs = self.self_times()
        payload = dict(extra or {})
        payload["spans"] = [
            {
                "id": span.id,
                "name": span.name,
                "trace": span.trace,
                "parent": span.parent,
                "start_s": span.start - origin,
                "end_s": span.end - origin,
                "self_s": selfs[span.id],
            }
            for span in self.spans
        ]
        path.write_text(json.dumps(payload) + "\n", encoding="utf8")


def _covered(parent: Span, children) -> float:
    """Length of the part of ``parent``'s interval its children cover."""
    covered = 0.0
    reach = parent.start
    for child in sorted(children, key=lambda span: span.start):
        start = max(child.start, reach)
        end = min(child.end, parent.end)
        if end > start:
            covered += end - start
            reach = end
    return covered


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


class NullTracer:
    """Same surface as :class:`Tracer`, records nothing."""

    _NULL = _NullSpan()

    def operation(self, workload: str, index: int) -> None:
        return None

    def span(self, name: str) -> _NullSpan:
        return self._NULL

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        return fn
