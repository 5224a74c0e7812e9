"""Circuit breaker state machine around model evaluation."""

from __future__ import annotations

import pytest

from repro.durability import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, CircuitOpenError
from repro.durability.breaker import breaker_view
from repro.errors import ApiError, ConfigError
from tests.clock import ManualClock

def boom():
    raise ValueError("evaluation blew up")


def make(clock, **overrides):
    options = dict(
        failure_threshold=0.5,
        window=10,
        min_calls=4,
        open_seconds=5.0,
        clock=clock,
    )
    options.update(overrides)
    return CircuitBreaker(**options)



def _view(breaker: CircuitBreaker) -> dict:
    """The breaker's ``/healthz`` block, read from its registry."""
    return breaker_view(breaker.telemetry.snapshot())

class TestTripping:
    def test_stays_closed_below_min_calls(self):
        clock = ManualClock()
        breaker = make(clock)
        for _ in range(3):
            with pytest.raises(ValueError):
                breaker.call(boom)
        assert breaker.state == CLOSED  # 3 < min_calls: rate not trusted

    def test_trips_open_at_failure_rate(self):
        clock = ManualClock()
        breaker = make(clock)
        for _ in range(4):
            with pytest.raises(ValueError):
                breaker.call(boom)
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.call(lambda: "never runs")
        assert excinfo.value.status == 503
        assert excinfo.value.payload["retry_after"] >= 1

    def test_api_errors_do_not_count_as_failures(self):
        clock = ManualClock()
        breaker = make(clock)

        def refuse():
            raise ApiError("degraded metrics", 503)

        for _ in range(10):
            with pytest.raises(ApiError):
                breaker.call(refuse)
        assert breaker.state == CLOSED

    def test_mixed_outcomes_below_threshold_stay_closed(self):
        clock = ManualClock()
        breaker = make(clock)
        for i in range(12):
            if i % 4 == 0:
                with pytest.raises(ValueError):
                    breaker.call(boom)
            else:
                breaker.call(lambda: "ok")
        assert breaker.state == CLOSED


class TestHalfOpen:
    def _trip(self, breaker):
        for _ in range(4):
            with pytest.raises(ValueError):
                breaker.call(boom)
        assert breaker.state == OPEN

    def test_probe_success_closes(self):
        clock = ManualClock()
        breaker = make(clock)
        self._trip(breaker)
        clock.advance(5.1)
        assert breaker.state == HALF_OPEN
        assert breaker.call(lambda: 42) == 42
        assert breaker.state == CLOSED
        # the window was wiped: one old failure must not re-trip
        with pytest.raises(ValueError):
            breaker.call(boom)
        assert breaker.state == CLOSED

    def test_probe_failure_reopens(self):
        clock = ManualClock()
        breaker = make(clock)
        self._trip(breaker)
        clock.advance(5.1)
        with pytest.raises(ValueError):
            breaker.call(boom)
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "rejected")

    def test_stats_and_state_agree_after_the_cool_down(self):
        clock = ManualClock()
        breaker = make(clock)
        self._trip(breaker)
        assert _view(breaker)["state"] == breaker.state == OPEN
        clock.advance(4.9)
        assert _view(breaker)["state"] == breaker.state == OPEN
        clock.advance(0.2)
        assert _view(breaker)["state"] == breaker.state == HALF_OPEN
        assert breaker.call(lambda: "probe") == "probe"
        assert _view(breaker)["state"] == breaker.state == CLOSED

    def test_stats_shape(self):
        clock = ManualClock()
        breaker = make(clock)
        self._trip(breaker)
        stats = _view(breaker)
        assert stats["state"] == OPEN
        assert stats["opened_count"] == 1
        assert 0.0 < stats["failure_rate"] <= 1.0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0.0},
            {"failure_threshold": 1.5},
            {"window": 0},
            {"min_calls": 0},
            {"open_seconds": 0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            make(ManualClock(), **kwargs)
