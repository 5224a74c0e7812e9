"""The machine-speed meter: which kernel samples scale which interval."""

import pytest

from benchmarks.ledger.e2e import Round
from benchmarks.ledger.speed import REFERENCE_S, SpeedMeter, kernel


class Fake:
    """A clock the test moves, and a kernel whose duration the test sets."""

    def __init__(self) -> None:
        self.now = 0.0
        self.kernel_s = REFERENCE_S

    def clock(self) -> float:
        return self.now

    def run_kernel(self) -> float:
        self.now += self.kernel_s
        return self.kernel_s


def meter_with(samples):
    """A meter holding kernel samples ``(at, seconds)``."""
    fake = Fake()
    meter = SpeedMeter(fake.run_kernel, fake.clock)
    for at, seconds in samples:
        fake.now = at - seconds / 2
        fake.kernel_s = seconds
        meter.sample()
    return meter


def test_a_machine_at_reference_speed_scales_by_one():
    meter = meter_with([(1.0, REFERENCE_S), (2.0, REFERENCE_S)])
    assert meter.factor(1.2, 1.8) == pytest.approx(1.0)


def test_a_slow_machine_scales_timings_down():
    meter = meter_with([(1.0, 2 * REFERENCE_S), (2.0, 2 * REFERENCE_S)])
    assert meter.factor(1.2, 1.8) == pytest.approx(0.5)


def test_an_interval_uses_the_samples_inside_it_and_one_on_either_side():
    fast, slow = REFERENCE_S, 3 * REFERENCE_S
    meter = meter_with([(0.0, slow), (1.0, fast), (2.0, fast), (3.0, fast), (9.0, slow)])
    # [1.5, 2.5] holds the sample at 2.0; its neighbours are 1.0 and 3.0.
    assert meter.factor(1.5, 2.5) == pytest.approx(1.0)
    # A point in time uses just the two samples around it.
    assert meter.factor(0.5) == pytest.approx(REFERENCE_S / ((slow + fast) / 2))
    # Past the last sample there is only the one before.
    assert meter.factor(9.5, 9.9) == pytest.approx(1 / 3)


def test_a_whole_bracket_beside_an_interval_scales_it():
    fast, slow = REFERENCE_S, 3 * REFERENCE_S
    # Three samples right before a child start, three right after it.
    meter = meter_with([
        (0.96, fast), (0.98, slow), (1.0, fast),
        (2.0, slow), (2.02, slow), (2.04, slow), (5.0, fast),
    ])
    mean = (2 * fast + 4 * slow) / 6
    assert meter.factor(1.01, 1.99) == pytest.approx(REFERENCE_S / mean)


def test_everything_inside_a_held_window_shares_the_windows_factor():
    fast, slow = REFERENCE_S, 3 * REFERENCE_S
    meter = meter_with([(0.0, fast), (1.0, slow), (2.0, fast), (3.0, slow), (4.0, fast)])
    meter.hold(0.5, 3.5)
    whole = meter.factor(0.5, 3.5)
    assert whole == pytest.approx(REFERENCE_S / ((3 * fast + 2 * slow) / 5))
    assert meter.factor(0.9, 1.1) == whole
    assert meter.factor(2.5) == whole
    # An interval that sticks out of the window is scaled on its own.
    assert meter.factor(3.9, 4.1) == pytest.approx(REFERENCE_S / ((slow + fast) / 2))


def test_a_request_latency_is_scaled_by_the_speed_beside_it():
    slow, fast = 2 * REFERENCE_S, REFERENCE_S
    meter = meter_with([(0.0, slow), (0.1, slow), (5.0, fast), (5.1, fast)])
    one = Round(meter=meter)
    one.log.latencies_ms["predict"] = [1.0, 20.0, 1.0]
    one.log.completed_at["predict"] = [0.05, 2.5, 5.05]
    assert one.latencies_ms("predict", scaled=False) == [1.0, 20.0, 1.0]
    # Between the slow samples, between a slow and a fast, between the fast.
    assert one.latencies_ms("predict") == pytest.approx([0.5, 20.0 / 1.5, 1.0])


def test_tick_samples_only_when_the_last_sample_is_old():
    fake = Fake()
    meter = SpeedMeter(fake.run_kernel, fake.clock)
    assert meter.samples == 0  # the warm-up call is not a sample
    meter.tick()
    meter.tick()
    assert meter.samples == 1
    fake.now += 1.0
    meter.tick()
    assert meter.samples == 2


def test_no_sample_no_factor():
    fake = Fake()
    with pytest.raises(ValueError):
        SpeedMeter(fake.run_kernel, fake.clock).factor(0.0, 1.0)


def test_the_real_kernel_takes_milliseconds_not_seconds():
    assert 0.0005 < kernel() < 0.5
