"""A circuit breaker around model evaluation.

Model computation is the expensive, failure-prone step of the service:
a topology whose calibration consistently blows up (bad metrics, a
pathological plan) would otherwise burn a scheduler slot per request
while every caller waits the full evaluation time just to receive the
same error.  The breaker watches a sliding window of outcomes and trips
*open* once the failure rate crosses a threshold, failing subsequent
calls instantly with a structured 503 + ``Retry-After``.  After a
cool-down it moves to *half-open* and admits a limited number of probe
calls: one success closes the circuit, one failure re-opens it.

Client-caused errors (:class:`~repro.errors.ApiError` — 4xx semantics,
load shedding, health declines) do not count as failures; only genuine
evaluation errors trip the breaker.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable
from typing import Any, TypeVar

from repro.clock import SYSTEM_CLOCK, Clock
from repro.errors import ApiError, ConfigError
from repro.telemetry import Snapshot, Telemetry, readings

__all__ = ["CircuitBreaker", "CircuitOpenError", "CLOSED", "OPEN", "HALF_OPEN",
           "breaker_view"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

T = TypeVar("T")


class CircuitOpenError(ApiError):
    """The circuit is open; the service refuses to evaluate models.

    Maps to HTTP 503 with ``retry_after`` set to the remaining cool-down.
    """

    def __init__(self, retry_after: int, failure_rate: float) -> None:
        super().__init__(
            "model evaluation circuit is open "
            f"(recent failure rate {failure_rate:.0%}); "
            f"retry in ~{retry_after}s",
            503,
            {
                "circuit": OPEN,
                "retry_after": retry_after,
                "failure_rate": round(failure_rate, 4),
            },
        )
        self.retry_after = retry_after


class CircuitBreaker:
    """Sliding-window failure-rate circuit breaker.

    Parameters
    ----------
    failure_threshold:
        Trip open when the windowed failure rate reaches this fraction.
    window:
        Number of recent call outcomes considered.
    min_calls:
        Outcomes required before the rate is trusted (a single failure
        out of one call must not trip a fresh breaker).
    open_seconds:
        Cool-down before probing; also the ``Retry-After`` hint.
    half_open_probes:
        Concurrent probe calls admitted while half-open.
    clock:
        What the cool-down is measured on.
    telemetry:
        Where the ``breaker.*`` counters and gauges are kept.
    """

    def __init__(
        self,
        failure_threshold: float = 0.5,
        window: int = 20,
        min_calls: int = 5,
        open_seconds: float = 5.0,
        half_open_probes: int = 1,
        clock: Clock = SYSTEM_CLOCK,
        telemetry: Telemetry | None = None,
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ConfigError("failure_threshold must be in (0, 1]")
        if window < 1 or min_calls < 1 or half_open_probes < 1:
            raise ConfigError(
                "window, min_calls and half_open_probes must be >= 1"
            )
        if open_seconds <= 0:
            raise ConfigError("open_seconds must be positive")
        self.failure_threshold = failure_threshold
        self.window = window
        self.min_calls = min_calls
        self.open_seconds = open_seconds
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self.telemetry = telemetry or Telemetry(clock)
        self.telemetry.gauges("breaker.", self._gauges)

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def _gauges(self) -> dict[str, int]:
        """Additive, so a fleet's merge reads how many circuits are open
        and the failure rate over every window."""
        with self._lock:
            state = self._state_locked()
            return {
                "open": state == OPEN, "half_open": state == HALF_OPEN,
                "window_calls": len(self._outcomes),
                "window_failures": self._outcomes.count(False),
            }

    def _failure_rate_locked(self) -> float:
        calls = len(self._outcomes)
        return self._outcomes.count(False) / calls if calls else 0.0

    def _state_locked(self) -> str:
        """The current state; an open circuit whose cool-down is over
        becomes half-open here.

        The one place the state is decided: :meth:`_admit` and
        :attr:`state` (and so the gauges) read it here.
        """
        if (
            self._state == OPEN
            and self._clock.monotonic() - self._opened_at >= self.open_seconds
        ):
            self._state = HALF_OPEN
            self._probes_in_flight = 0
        return self._state

    def _admit(self) -> bool:
        """Admit one call; ``True`` when it runs as a half-open probe."""
        with self._lock:
            state = self._state_locked()
            if state == OPEN:
                self.telemetry.count("breaker.rejected")
                reopens = self._opened_at + self.open_seconds
                raise CircuitOpenError(
                    max(1, round(reopens - self._clock.monotonic())),
                    self._failure_rate_locked(),
                )
            if state == HALF_OPEN:
                if self._probes_in_flight >= self.half_open_probes:
                    self.telemetry.count("breaker.rejected")
                    raise CircuitOpenError(
                        max(1, round(self.open_seconds)),
                        self._failure_rate_locked(),
                    )
                self._probes_in_flight += 1
                return True
            return False

    def _record(self, ok: bool, probe: bool) -> None:
        with self._lock:
            if probe:
                self._probes_in_flight -= 1
            if self._state == HALF_OPEN:
                if ok:
                    # One good probe closes the circuit with a clean
                    # window — the failure streak is history.
                    self._state = CLOSED
                    self._outcomes.clear()
                    self._outcomes.append(True)
                else:
                    self._trip_locked()
                return
            self._outcomes.append(ok)
            if (
                self._state == CLOSED
                and len(self._outcomes) >= self.min_calls
                and self._failure_rate_locked() >= self.failure_threshold
            ):
                self._trip_locked()

    def _trip_locked(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock.monotonic()
        self.telemetry.count("breaker.opened")
        self._outcomes.append(False)

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` under the breaker.

        :class:`~repro.errors.ApiError` passes through without counting
        as a failure (it encodes a deliberate refusal, not a broken
        evaluator); every other exception is a failure.
        """
        probe = self._admit()
        try:
            result = fn()
        except ApiError:
            self._record(True, probe)
            raise
        except Exception:
            self._record(False, probe)
            raise
        self._record(True, probe)
        return result

    @property
    def state(self) -> str:
        """The current breaker state (`closed`/`open`/`half-open`)."""
        with self._lock:
            return self._state_locked()


def breaker_view(snapshot: Snapshot) -> dict[str, Any] | None:
    """The ``breaker`` block of ``/healthz`` and ``/serving/stats``;
    ``None`` when no breaker counted into ``snapshot``."""
    if "breaker.open" not in snapshot["gauges"]:
        return None
    read = readings(snapshot, "breaker.", "open", "half_open", "window_calls",
                    "window_failures", "opened", "rejected")
    calls = read["window_calls"]
    return {
        "state": OPEN if read["open"] else HALF_OPEN if read["half_open"] else CLOSED,
        "failure_rate": round(read["window_failures"] / calls, 4) if calls else 0.0,
        "window": calls,
        "opened_count": read["opened"],
        "rejected": read["rejected"],
    }
