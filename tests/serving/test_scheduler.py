"""PriorityScheduler: concurrency bound, priority order, load shedding."""

from __future__ import annotations

import math
import threading
import time

import pytest

from repro.errors import ConfigError
from repro.serving.scheduler import (
    INTERACTIVE,
    PRECOMPUTE,
    AdmissionError,
    PriorityScheduler,
)
from tests.clock import JOIN, Call, ManualClock
from tests.readings import reading

#: A slot wait that never times out unless the test moves the clock: a
#: queued run carries it so that it shows up as a waiter on the clock.
PATIENT = 3600.0


def occupy(scheduler) -> tuple[Call, threading.Event]:
    """Hold one slot until the returned event is set."""
    occupied, release = threading.Event(), threading.Event()

    def blocker():
        occupied.set()
        assert release.wait(JOIN)
        return "blocker"

    call = Call(scheduler.run, blocker)
    assert occupied.wait(JOIN)
    return call, release


class TestExecution:
    def test_runs_and_returns(self):
        scheduler = PriorityScheduler(max_concurrent=2, max_queue=4)
        assert scheduler.run(lambda: 42) == 42
        assert scheduler.telemetry.histogram("serving.compute")[0] == 1

    def test_concurrency_is_bounded(self):
        clock = ManualClock()
        scheduler = PriorityScheduler(max_concurrent=2, max_queue=16, clock=clock)
        running = []
        peak = []
        lock = threading.Lock()
        release = threading.Event()

        def work():
            with lock:
                running.append(1)
                peak.append(len(running))
            assert release.wait(JOIN)
            with lock:
                running.pop()
            return True

        calls = [
            Call(scheduler.run, work, INTERACTIVE, PATIENT) for _ in range(6)
        ]
        assert clock.await_waiters(4)  # two admitted, four queued
        release.set()
        assert all(call.result() for call in calls)
        assert max(peak) <= 2

    def test_exceptions_release_the_slot(self):
        scheduler = PriorityScheduler(max_concurrent=1, max_queue=4)
        with pytest.raises(ValueError):
            scheduler.run(lambda: (_ for _ in ()).throw(ValueError("x")))
        assert scheduler.run(lambda: "ok") == "ok"

    def test_validation(self):
        with pytest.raises(ConfigError):
            PriorityScheduler(max_concurrent=0)
        with pytest.raises(ConfigError):
            PriorityScheduler(max_queue=0)


class TestPriority:
    def test_interactive_runs_before_precompute(self):
        clock = ManualClock()
        scheduler = PriorityScheduler(max_concurrent=1, max_queue=8, clock=clock)
        order = []
        first, release = occupy(scheduler)
        # Queue a precompute, then an interactive, while the slot is
        # held; the interactive one must be admitted first.
        pre = Call(scheduler.run, lambda: order.append("pre"), PRECOMPUTE, PATIENT)
        assert clock.await_waiters(1)
        inter = Call(
            scheduler.run, lambda: order.append("inter"), INTERACTIVE, PATIENT
        )
        assert clock.await_waiters(2)
        release.set()
        first.result()
        pre.result()
        inter.result()
        assert order == ["inter", "pre"]


class TestAdmissionControl:
    def test_sheds_with_429_when_queue_full(self):
        clock = ManualClock()
        scheduler = PriorityScheduler(max_concurrent=1, max_queue=1, clock=clock)
        running, release = occupy(scheduler)
        queued = Call(scheduler.run, lambda: "queued", INTERACTIVE, PATIENT)
        assert clock.await_waiters(1)
        with pytest.raises(AdmissionError) as excinfo:
            scheduler.run(lambda: "shed")
        release.set()
        running.result()
        assert queued.result() == "queued"
        assert excinfo.value.status == 429
        assert excinfo.value.payload["retry_after"] >= 1
        assert excinfo.value.payload["queue_depth"] == 1
        assert reading(scheduler, "serving.scheduler.shed") == 1

    def test_deadline_expiry_sheds(self):
        """A request whose budget runs out while still queued is shed, not
        served late — when the scheduler's clock passes the budget, with
        no real wait on top."""
        clock = ManualClock()
        scheduler = PriorityScheduler(max_concurrent=1, max_queue=4, clock=clock)
        running, release = occupy(scheduler)
        late = Call(scheduler.run, lambda: "late", INTERACTIVE, 0.2)
        assert clock.await_waiters(1)
        clock.advance(0.1)
        assert reading(scheduler, "serving.scheduler.queue_depth") == 1  # not due yet
        began = time.perf_counter()
        clock.advance(0.1)
        with pytest.raises(AdmissionError):
            late.result()
        assert time.perf_counter() - began < 1.0
        assert reading(scheduler, "serving.scheduler.queue_depth") == 0
        assert reading(scheduler, "serving.scheduler.shed") == 1
        release.set()
        running.result()

    def test_a_wait_that_raises_leaves_the_queue(self):
        """A queued run whose wait raises (``Condition.wait(inf)`` is an
        ``OverflowError``) takes its ticket with it: the next request is
        admitted once the slot frees."""
        scheduler = PriorityScheduler(max_concurrent=1, max_queue=4)
        running, release = occupy(scheduler)
        with pytest.raises(OverflowError):
            scheduler.run(lambda: "never", INTERACTIVE, timeout=math.inf)
        assert reading(scheduler, "serving.scheduler.queue_depth") == 0
        assert reading(scheduler, "serving.scheduler.shed") == 0
        following = Call(scheduler.run, lambda: "admitted")
        release.set()
        assert running.result() == "blocker"
        assert following.result() == "admitted"

    def test_retry_after_scales_with_backlog(self):
        scheduler = PriorityScheduler(max_concurrent=1, max_queue=100)
        # Computations so far have taken 2 s on average.
        scheduler.telemetry.observe("serving.compute", 2 * 10**9)
        with scheduler._cond:
            scheduler._waiting = [(0, i) for i in range(10)]
            estimate = scheduler._retry_after_locked()
        assert estimate >= 20
