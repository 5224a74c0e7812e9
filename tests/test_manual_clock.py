"""The tests' ManualClock: virtual time, deadline-ordered wake-ups, no
real sleeps."""

from __future__ import annotations

import threading
import time

import pytest

from repro.clock import SYSTEM_CLOCK, Clock
from tests.clock import Call, ManualClock


@pytest.fixture(autouse=True)
def no_real_sleep(monkeypatch):
    def refuse(seconds):
        raise AssertionError(f"slept {seconds}s for real")

    monkeypatch.setattr(time, "sleep", refuse)


def _wait_for(clock, condition, predicate, timeout, woke=None):
    """``clock.wait_for`` as a caller makes it: with the condition held."""
    with condition:
        result = clock.wait_for(condition, predicate, timeout)
        if woke is not None:
            woke.append(timeout)  # before the next waiter can be woken
        return result


def test_the_system_clock_is_the_stdlib():
    assert SYSTEM_CLOCK.monotonic is time.monotonic
    assert isinstance(ManualClock(), Clock)


def test_sleep_advances_now_records_it_and_wakes_due_waiters():
    clock = ManualClock(now=5.0)
    waiter = Call(_wait_for, clock, threading.Condition(), lambda: False, 1.0)
    assert clock.await_waiters(1)
    clock.sleep(0.25)
    assert clock.await_waiters(1)  # not due yet: still waiting
    clock.sleep(1.0)
    assert waiter.result() is False
    assert clock.monotonic() == 6.25
    clock.advance(2.0)
    assert (clock.now, clock.slept) == (8.25, [0.25, 1.0])


def test_waiters_wake_in_deadline_order():
    clock = ManualClock()
    condition = threading.Condition()
    woke: list[float] = []
    waiters = [
        Call(_wait_for, clock, condition, lambda: False, timeout, woke)
        for timeout in (3.0, 1.0, 2.0)
    ]
    assert clock.await_waiters(3)
    clock.advance(10.0)
    assert [waiter.result() for waiter in waiters] == [False] * 3
    assert woke == [1.0, 2.0, 3.0]
    assert clock.now == 10.0


def test_wait_for_returns_the_predicates_value():
    clock = ManualClock()
    condition = threading.Condition()
    assert _wait_for(clock, condition, lambda: 7, 0.0) == 7
    assert _wait_for(clock, condition, lambda: [], 0.0) == []
    found: dict[str, int] = {}
    waiter = Call(_wait_for, clock, condition, lambda: found.get("x"), 60.0)
    assert clock.await_waiters(1)
    with condition:
        found["x"] = 42
        condition.notify_all()
    assert waiter.result() == 42
    assert clock.now == 0.0  # satisfied, not timed out


def test_wait_returns_when_the_event_is_set_or_the_time_is_up():
    clock = ManualClock()
    event = threading.Event()
    waiter = Call(clock.wait, event, 5.0)
    assert clock.await_waiters(1)
    event.set()
    assert waiter.result() is True
    waiter = Call(clock.wait, threading.Event(), 5.0)
    assert clock.await_waiters(1)
    clock.advance(5.0)
    assert waiter.result() is False


def test_nothing_sleeps_for_real():
    clock = ManualClock()
    began = time.perf_counter()
    for _ in range(1000):
        clock.sleep(3600.0)
    assert clock.now == 3600.0 * 1000
    assert time.perf_counter() - began < 1.0
