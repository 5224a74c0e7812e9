"""End-to-end request deadlines, propagated cooperatively.

A client that will give up after two seconds gains nothing from the
service finishing its computation in four — it only wastes a scheduler
slot.  Callers send ``X-Request-Deadline: <seconds>`` (a delta budget,
immune to clock skew); the API tier turns it into a :class:`Deadline`,
feeds the remaining budget into the admission gate
(:meth:`PriorityScheduler.run(timeout=...)`) and installs it in a
context variable so model evaluation can poll :func:`check_deadline`
at natural yield points and abandon work whose requester has already
left.  An exceeded deadline surfaces as a structured HTTP 504.

This module is dependency-free on purpose: the core modelling tier
imports it without touching the rest of the durability package.
"""

from __future__ import annotations

import contextvars
import math
import os
from collections.abc import Iterator
from contextlib import contextmanager

from repro.clock import SYSTEM_CLOCK, Clock
from repro.errors import ApiError

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
    "parse_deadline_header",
]

DEADLINE_HEADER = "X-Request-Deadline"

#: Hands the interpreter to a thread that is waiting for it (0.4 us when
#: none is).  A no-op where the platform has no ``sched_yield``.
_yield_interpreter = getattr(os, "sched_yield", lambda: None)


class DeadlineExceeded(ApiError):
    """The request's deadline passed before the work finished (HTTP 504)."""

    def __init__(self, overshoot_seconds: float) -> None:
        super().__init__(
            "request deadline exceeded "
            f"({overshoot_seconds * 1000.0:.0f} ms past the budget)",
            504,
            {"deadline": "exceeded"},
        )


class Deadline:
    """An absolute point on ``clock`` the request must finish by."""

    def __init__(self, budget_seconds: float, clock: Clock = SYSTEM_CLOCK) -> None:
        if not 0 < budget_seconds < math.inf:
            raise ApiError(
                f"{DEADLINE_HEADER} must be a positive, finite number of "
                f"seconds, got {budget_seconds!r}"
            )
        self._clock = clock
        self._at = clock.monotonic() + budget_seconds

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self._at - self._clock.monotonic()

    def expired(self) -> bool:
        """True once the budget has run out."""
        return self.remaining() <= 0

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` when expired."""
        remaining = self.remaining()
        if remaining <= 0:
            raise DeadlineExceeded(-remaining)


_current: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro_request_deadline", default=None
)


def current_deadline() -> Deadline | None:
    """The deadline governing the current request, if any."""
    return _current.get()


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[None]:
    """Install a deadline for the duration of a request's processing."""
    token = _current.set(deadline)
    try:
        yield
    finally:
        _current.reset(token)


def check_deadline() -> None:
    """Cooperative cancellation point: cheap no-op without a deadline.

    Model evaluation calls this between expensive stages (per-component
    calibration, per-path propagation) so an expired request stops
    consuming its scheduler slot.

    It is a scheduling point too.  A model computation is a long stretch
    of interpreter-bound work, often started *by* a write (the re-warm of
    what the write invalidated); the writer, back from its ``fsync`` with
    only the acknowledgement left to send, would otherwise wait out a
    whole switch interval (5 ms) for the interpreter.  Releasing it here
    bounds that wait by one stage of the computation.
    """
    _yield_interpreter()
    deadline = _current.get()
    if deadline is not None:
        deadline.check()


def parse_deadline_header(value: str | None) -> float | None:
    """The budget a raw header value asks for, in seconds.

    Malformed values raise :class:`~repro.errors.ApiError` (400): a
    client that asked for a deadline and mistyped it should hear about
    it, not silently run unbounded.  The caller builds the
    :class:`Deadline` on its own clock, which also refuses a budget that
    is not positive and finite (``inf``, ``1e400``, ``nan``).
    """
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        raise ApiError(
            f"{DEADLINE_HEADER} must be a number of seconds, got {value!r}"
        ) from None
