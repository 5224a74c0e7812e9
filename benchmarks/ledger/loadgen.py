"""Load-generation primitives: operation log, closed loop, open loop.

Callers that wait for a reply (a scheduler asking for a prediction) are a
*closed* loop: the next request leaves when the previous one returned.
The metrics feed is an *open* loop: a minute of samples arrives on the
clock whatever the service is doing, so each of its operations is timed
from the instant it was **due**, which charges a stall to every request
queued behind it, and the generator's own lateness is reported.
"""

from __future__ import annotations

import http.client
import time
from collections.abc import Callable
from typing import Any

from repro.errors import ApiError

#: What a request may raise when the service refuses or drops it.
REQUEST_ERRORS = (ApiError, OSError, http.client.HTTPException)


class OpLog:
    """Latencies and attempted/failed counts per operation kind.

    Not shared between threads: each load-generator thread owns one and
    the results are merged after ``join``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.latencies_ms: dict[str, list[float]] = {}
        #: Completion instant of each latency sample, same order.
        self.completed_at: dict[str, list[float]] = {}
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self._clock = clock

    def call(
        self,
        kind: str,
        fn: Callable[..., Any],
        *args: Any,
        due: float | None = None,
        **kwargs: Any,
    ) -> Any:
        """Run one operation; time it from ``due`` (default: from now).

        A refused or failed request counts as attempted and failed and
        contributes no latency; ``None`` is returned in its place.
        """
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        began = self._clock() if due is None else due
        try:
            result = fn(*args, **kwargs)
        except REQUEST_ERRORS:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            return None
        finished = self._clock()
        self.latencies_ms.setdefault(kind, []).append((finished - began) * 1e3)
        self.completed_at.setdefault(kind, []).append(finished)
        return result

    def merge(self, other: "OpLog") -> None:
        for kind, values in other.latencies_ms.items():
            self.latencies_ms.setdefault(kind, []).extend(values)
            self.completed_at.setdefault(kind, []).extend(other.completed_at[kind])
        for kind, count in other.attempted.items():
            self.attempted[kind] = self.attempted.get(kind, 0) + count
        for kind, count in other.failed.items():
            self.failed[kind] = self.failed.get(kind, 0) + count


class OpenLoop:
    """Fires ``tick(index, due)`` every ``tick_seconds``, ``ticks`` times.

    The schedule is fixed at the first tick: tick ``i`` is due at
    ``start + i * tick_seconds`` however long earlier ticks took.  A tick
    that starts late is not skipped — its operations are timed from the
    due instant — and how late it started lands in ``lateness_ms``.
    """

    def __init__(
        self,
        tick_seconds: float,
        ticks: int,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.tick_seconds = tick_seconds
        self.ticks = ticks
        self.lateness_ms: list[float] = []
        self._clock = clock
        self._sleep = sleep

    def run(self, tick: Callable[[int, float], None]) -> None:
        start = self._clock()
        for index in range(self.ticks):
            due = start + index * self.tick_seconds
            now = self._clock()
            if now < due:
                self._sleep(due - now)
                now = self._clock()
            self.lateness_ms.append(max(0.0, (now - due) * 1e3))
            tick(index, due)
