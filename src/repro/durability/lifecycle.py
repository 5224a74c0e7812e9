"""The service drain state machine.

A Caladrius process moves through exactly three states::

    running ──begin_drain()──▶ draining ──mark_stopped()──▶ stopped

While *running*, ``/readyz`` answers 200 and work is admitted.  On
SIGTERM/SIGINT the server calls :meth:`LifecycleController.begin_drain`:
``/readyz`` flips to 503 (so load balancers stop routing here), new
modelling and metrics-write requests are refused with 503 +
``Retry-After``, and in-flight requests run to completion.  Once the
in-flight count reaches zero — or the drain deadline passes — the
server flushes the WAL, takes a final checkpoint and exits.

The controller is transport-agnostic: the HTTP tier brackets each
request with :meth:`request_started`/:meth:`request_finished`, and the
app consults :meth:`is_draining` when routing.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.clock import SYSTEM_CLOCK, Clock

__all__ = ["LifecycleController", "RUNNING", "DRAINING", "STOPPED"]

RUNNING = "running"
DRAINING = "draining"
STOPPED = "stopped"


class LifecycleController:
    """Thread-safe drain state plus the in-flight request gauge."""

    def __init__(self, clock: Clock = SYSTEM_CLOCK) -> None:
        self._clock = clock
        self._cond = threading.Condition()
        self._state = RUNNING
        self._inflight = 0
        self._drain_started: float | None = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """The current lifecycle state."""
        with self._cond:
            return self._state

    def is_draining(self) -> bool:
        """True once a drain has begun (new work is refused)."""
        with self._cond:
            return self._state != RUNNING

    def begin_drain(self) -> bool:
        """Flip to draining; ``False`` when already draining/stopped."""
        with self._cond:
            if self._state != RUNNING:
                return False
            self._state = DRAINING
            self._drain_started = self._clock.monotonic()
            self._cond.notify_all()
            return True

    def mark_stopped(self) -> None:
        """Record that the process is past serving entirely."""
        with self._cond:
            self._state = STOPPED
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # In-flight accounting (bracketed by the HTTP tier)
    # ------------------------------------------------------------------
    def request_started(self) -> None:
        """Count one request entering the handler."""
        with self._cond:
            self._inflight += 1

    def request_finished(self) -> None:
        """Count one request leaving the handler (success or error)."""
        with self._cond:
            self._inflight = max(0, self._inflight - 1)
            self._cond.notify_all()

    def inflight(self) -> int:
        """Requests currently inside the handler."""
        with self._cond:
            return self._inflight

    def wait_idle(self, timeout: float) -> bool:
        """Block until no requests are in flight; ``False`` on timeout.

        The caller (the drain sequence) is itself *not* a request, so
        idle means every request that was admitted before the drain
        began has completed.
        """
        with self._cond:
            return self._clock.wait_for(
                self._cond, lambda: self._inflight == 0, timeout
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        """The ``/healthz``/``/readyz`` payload fields."""
        with self._cond:
            payload: dict[str, Any] = {
                "state": self._state,
                "inflight": self._inflight,
            }
            if self._drain_started is not None:
                payload["draining_seconds"] = round(
                    self._clock.monotonic() - self._drain_started, 3
                )
            return payload
