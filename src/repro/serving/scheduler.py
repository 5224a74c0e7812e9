"""Priority admission control for model computations.

Model evaluations are the expensive step ("up to several seconds",
paper Section V-F).  Under overload an unbounded queue turns every
response slow; this scheduler instead bounds the queue, runs interactive
requests ahead of background precomputation, and *sheds* excess load
with a structured 429 carrying a ``Retry-After`` estimate — the
behaviour a client can actually cooperate with.

The scheduler is a gate, not a pool: computations execute on the calling
thread (an HTTP handler thread or the async worker pool), at most
``max_concurrent`` at a time, admitted in (priority, arrival) order.
"""

from __future__ import annotations

import heapq
import math
import threading
from collections.abc import Callable
from typing import TypeVar

from repro.clock import SYSTEM_CLOCK, Clock
from repro.errors import ApiError, ConfigError
from repro.telemetry import Telemetry

__all__ = ["AdmissionError", "INTERACTIVE", "PRECOMPUTE", "PriorityScheduler",
           "mean_compute_seconds"]

#: Priority classes: lower sorts first.  Interactive requests (a human
#: or an autoscaler waiting on the answer) always run before warm-cache
#: precomputation.
INTERACTIVE = 0
PRECOMPUTE = 1

T = TypeVar("T")


class AdmissionError(ApiError):
    """The queue is full (or the deadline passed); retry later.

    Maps to HTTP 429; ``retry_after`` (seconds) is the scheduler's
    estimate of when a slot will be free, surfaced both in the payload
    and as a ``Retry-After`` header by the HTTP tier.
    """

    def __init__(self, retry_after: int, queue_depth: int) -> None:
        super().__init__(
            f"service is at capacity ({queue_depth} queued); "
            f"retry in ~{retry_after}s",
            429,
            {"retry_after": retry_after, "queue_depth": queue_depth},
        )
        self.retry_after = retry_after


class PriorityScheduler:
    """Bounded, priority-ordered admission gate.

    Parameters
    ----------
    max_concurrent:
        Computations allowed to run simultaneously.
    max_queue:
        Waiters allowed beyond the running ones; an arrival past this
        bound is shed with :class:`AdmissionError`.
    clock:
        What slot waits are measured on.
    telemetry:
        Where sheds, the queue gauges and the ``serving.compute`` span
        (one per computation run, on the registry's clock) are kept;
        that span's mean is the ``Retry-After`` estimate.
    """

    def __init__(
        self,
        max_concurrent: int = 4,
        max_queue: int = 32,
        clock: Clock = SYSTEM_CLOCK,
        telemetry: Telemetry | None = None,
    ) -> None:
        if max_concurrent < 1:
            raise ConfigError("max_concurrent must be >= 1")
        if max_queue < 1:
            raise ConfigError("max_queue must be >= 1")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self._clock = clock
        self._cond = threading.Condition()
        self._waiting: list[tuple[int, int]] = []
        self._running = 0
        self._seq = 0
        self.peak_queue = 0
        self.telemetry = telemetry = telemetry or Telemetry(clock)
        telemetry.gauges("serving.scheduler.", lambda: {
            "queue_depth": len(self._waiting), "running": self._running,
            "peak_queue": self.peak_queue})

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[[], T],
        priority: int = INTERACTIVE,
        timeout: float | None = None,
    ) -> T:
        """Run ``fn`` once admitted; shed with 429 when over capacity.

        ``timeout`` bounds the wait for a slot (a request deadline): a
        request still queued when it expires is shed exactly like an
        over-capacity arrival.
        """
        with self._cond:
            if len(self._waiting) >= self.max_queue:
                self.telemetry.count("serving.scheduler.shed")
                raise AdmissionError(
                    self._retry_after_locked(), len(self._waiting)
                )
            self._seq += 1
            ticket = (priority, self._seq)
            heapq.heappush(self._waiting, ticket)
            self.peak_queue = max(self.peak_queue, len(self._waiting))
            admitted = False
            try:
                admitted = self._clock.wait_for(
                    self._cond,
                    lambda: self._running < self.max_concurrent
                    and self._waiting[0] == ticket,
                    timeout,
                )
            finally:
                if not admitted:
                    # Shed, or the wait raised: either way the ticket
                    # leaves the queue and the next one may run.
                    self._waiting.remove(ticket)
                    heapq.heapify(self._waiting)
                    self._cond.notify_all()
            if not admitted:
                self.telemetry.count("serving.scheduler.shed")
                raise AdmissionError(
                    self._retry_after_locked(), len(self._waiting)
                )
            heapq.heappop(self._waiting)
            self._running += 1
            self._cond.notify_all()
        try:
            with self.telemetry.span("serving.compute"):
                return fn()
        finally:
            with self._cond:
                self._running -= 1
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _retry_after_locked(self) -> int:
        """The backlog's wait at the mean computation time so far."""
        backlog = len(self._waiting) + self._running
        mean = mean_compute_seconds(*self.telemetry.histogram("serving.compute"))
        return max(1, math.ceil(mean * backlog / self.max_concurrent))


def mean_compute_seconds(count: int, total_ns: int) -> float:
    """The mean of ``count`` computations taking ``total_ns`` in all
    (the ``serving.compute`` histogram); 1.0 s before the first."""
    return total_ns / count / 1e9 if count else 1.0
