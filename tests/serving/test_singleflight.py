"""SingleFlight: concurrent identical calls coalesce into one execution."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serving.singleflight import SingleFlight
from tests.live import poll_until
from tests.readings import reading


class TestCoalescing:
    def test_sequential_calls_each_execute(self):
        flight = SingleFlight()
        calls = []
        for i in range(3):
            result, led = flight.do("k", lambda i=i: calls.append(i) or i)
            assert led
            assert result == i
        assert calls == [0, 1, 2]

    def test_concurrent_identical_calls_execute_once(self):
        flight = SingleFlight()
        executions = []
        release = threading.Event()
        started = threading.Event()

        def slow():
            executions.append(1)
            started.set()
            release.wait(5)
            return "answer"

        with ThreadPoolExecutor(max_workers=8) as pool:
            leader = pool.submit(flight.do, "k", slow)
            assert started.wait(5)
            waiters = [pool.submit(flight.do, "k", slow) for _ in range(7)]
            # Give the waiters time to join the in-flight call.
            assert poll_until(
                lambda: reading(flight, "serving.singleflight.coalesced") == 7
            )
            release.set()
            results = [leader.result(5)] + [w.result(5) for w in waiters]
        assert sum(executions) == 1
        assert all(value == "answer" for value, _ in results)
        assert sum(1 for _, led in results if led) == 1
        assert reading(flight, "serving.singleflight.led") == 1
        assert reading(flight, "serving.singleflight.coalesced") == 7

    def test_distinct_keys_do_not_coalesce(self):
        flight = SingleFlight()
        gate = threading.Barrier(2, timeout=5)

        def work(tag):
            gate.wait()
            return tag

        with ThreadPoolExecutor(max_workers=2) as pool:
            a = pool.submit(flight.do, "a", lambda: work("a"))
            b = pool.submit(flight.do, "b", lambda: work("b"))
            assert a.result(5) == ("a", True)
            assert b.result(5) == ("b", True)
        assert reading(flight, "serving.singleflight.coalesced") == 0

    def test_leader_error_propagates_to_waiters(self):
        flight = SingleFlight()
        started = threading.Event()
        release = threading.Event()

        def failing():
            started.set()
            release.wait(5)
            raise ValueError("boom")

        with ThreadPoolExecutor(max_workers=2) as pool:
            leader = pool.submit(flight.do, "k", failing)
            assert started.wait(5)
            waiter = pool.submit(flight.do, "k", failing)
            assert poll_until(
                lambda: reading(flight, "serving.singleflight.coalesced") == 1
            )
            release.set()
            with pytest.raises(ValueError, match="boom"):
                leader.result(5)
            with pytest.raises(ValueError, match="boom"):
                waiter.result(5)

    def test_key_reusable_after_completion(self):
        flight = SingleFlight()
        flight.do("k", lambda: 1)
        result, led = flight.do("k", lambda: 2)
        assert (result, led) == (2, True)
