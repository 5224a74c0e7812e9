"""The tests' one clock: virtual time that moves only when told to.

:class:`ManualClock` is a :class:`repro.clock.Clock`, so every component
that takes ``clock=`` reads, sleeps and waits on it instead of the
operating system's clock:

- ``now`` is virtual; :meth:`advance` moves it, and so does
  :meth:`sleep`, which also records what it was asked for in ``slept``;
- :meth:`wait` and :meth:`wait_for` return at once when already
  satisfied; otherwise they block until another thread satisfies them
  or moves ``now`` past their deadline.  Due waiters are woken one at a
  time, earliest deadline first, each gone before the next is woken;
  :meth:`await_waiters` tells a test that the waits it is about to
  expire have begun;
- with a ``step``, every read moves ``now`` on by that much first: time
  passes while the code under test runs, so a budget shorter than the
  step is spent between two reads (reads wake no waiter);
- nothing sleeps for real.

A test that covers a timed wait runs the waiting side as a :class:`Call`,
whose join is bounded, so a component that waits on the OS clock instead
fails rather than hangs.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TypeVar

from repro.clock import Clock

T = TypeVar("T")

#: Real seconds a test thread may take: a woken waiter to leave its wait
#: (at once, unless the advancing thread holds its condition), a
#: :class:`Call` to finish.  Only a broken test or component waits it out.
JOIN = 10.0


@dataclass
class _Waiter:
    deadline: float
    condition: threading.Condition
    gone: threading.Event = field(default_factory=threading.Event)


class ManualClock(Clock):
    """A :class:`~repro.clock.Clock` whose time moves only when told to."""

    def __init__(self, now: float = 0.0, step: float = 0.0) -> None:
        self.now = now
        self.step = step
        self.slept: list[float] = []
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._waiters: list[_Waiter] = []

    def monotonic(self) -> float:
        self.now += self.step
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.advance(seconds)

    def advance(self, seconds: float) -> None:
        """Move ``now`` forward by ``seconds``, waking each waiter whose
        deadline it passes at that deadline, earliest first."""
        with self._lock:
            target = self.now + seconds
        while True:
            with self._lock:
                due = [w for w in self._waiters if w.deadline <= target]
                if not due:
                    self.now = max(self.now, target)
                    return
                waiter = min(due, key=lambda w: w.deadline)  # first in on a tie
                self.now = max(self.now, waiter.deadline)
            with waiter.condition:
                waiter.condition.notify_all()
            if not waiter.gone.wait(JOIN):
                raise AssertionError("a due waiter never left its wait")

    def wait(self, event: threading.Event, timeout: float | None) -> bool:
        # ``Event.set`` notifies the event's own condition: wait on that.
        condition = event._cond  # type: ignore[attr-defined]
        with condition:
            return self.wait_for(condition, event.is_set, timeout)

    def wait_for(
        self,
        condition: threading.Condition,
        predicate: Callable[[], T],
        timeout: float | None,
    ) -> T:
        result = predicate()
        if result:
            return result
        if timeout is None:
            return condition.wait_for(predicate)  # no time involved
        with self._lock:
            waiter = _Waiter(self.now + timeout, condition)
            self._waiters.append(waiter)
            self._changed.notify_all()
        try:
            while not result and self.now < waiter.deadline:
                condition.wait()
                result = predicate()
        finally:
            with self._lock:
                self._waiters.remove(waiter)
            waiter.gone.set()
        return result

    def await_waiters(self, count: int = 1, within: float = JOIN) -> bool:
        """Block until ``count`` threads wait on this clock with a timeout.

        ``False`` when that has not happened within ``within`` real
        seconds — a bound for a broken component (one that waits on
        another clock), never reached by a working one.
        """
        with self._changed:
            return self._changed.wait_for(lambda: len(self._waiters) >= count, within)


class Call:
    """``fn(*args, **kwargs)`` on a daemon thread."""

    def __init__(self, fn: Callable[..., T], *args, **kwargs) -> None:
        self._outcome: list[tuple[bool, object]] = []

        def run() -> None:
            try:
                self._outcome.append((True, fn(*args, **kwargs)))
            except BaseException as exc:  # noqa: BLE001 - raised by result()
                self._outcome.append((False, exc))

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()

    def result(self):
        """What ``fn`` returned, or raise what it raised; joins for at most
        :data:`JOIN` real seconds."""
        self._thread.join(JOIN)
        assert self._outcome, "still running"
        ((returned, value),) = self._outcome
        if not returned:
            raise value
        return value
