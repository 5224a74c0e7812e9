"""Open-loop scheduling and the operation log."""

from benchmarks.ledger.loadgen import OpenLoop, OpLog
from repro.errors import ApiError


class FakeTime:
    """A clock that only moves when slept on or advanced by the test."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


def test_open_loop_times_from_the_due_instant_and_reports_lateness():
    fake = FakeTime()
    log = OpLog(clock=fake.clock)
    loop = OpenLoop(0.25, 4, clock=fake.clock, sleep=fake.sleep)
    dues: list[float] = []

    def operation() -> str:
        fake.now += 0.1  # every request takes 100 ms of service
        return "ok"

    def tick(index: int, due: float) -> None:
        dues.append(due)
        if index == 1:
            fake.now += 0.4  # a stall: this tick overruns the next one
        log.call("ack", operation, due=due)

    loop.run(tick)
    # The schedule is fixed up front, not pushed back by the stall.
    assert dues == [0.0, 0.25, 0.5, 0.75]
    # Tick 2 was due at 0.5 but could only start at 0.75: 250 ms late.
    assert [round(ms) for ms in loop.lateness_ms] == [0, 0, 250, 100]
    # Latency runs from the due instant, so the stall is charged to the
    # stalled request *and* to the ones queued behind it.
    assert [round(ms) for ms in log.latencies_ms["ack"]] == [100, 500, 350, 200]
    # It slept only while ahead of schedule.
    assert [round(s, 2) for s in fake.sleeps] == [0.15]


def test_closed_loop_call_times_from_now():
    fake = FakeTime()
    log = OpLog(clock=fake.clock)

    def operation() -> None:
        fake.now += 0.002

    fake.now = 5.0
    log.call("predict", operation)
    assert [round(ms, 3) for ms in log.latencies_ms["predict"]] == [2.0]


def test_a_refused_request_counts_as_failed_and_has_no_latency():
    log = OpLog()

    def refused() -> None:
        raise ApiError("shed", 429)

    assert log.call("predict", refused) is None
    assert log.call("predict", lambda: "fine") == "fine"
    assert log.attempted == {"predict": 2}
    assert log.failed == {"predict": 1}
    assert len(log.latencies_ms["predict"]) == 1


def _refuse() -> None:
    raise ApiError("shed", 429)


def test_merge_adds_counts_and_latencies():
    a, b = OpLog(), OpLog()
    a.call("x", lambda: 1)
    b.call("x", lambda: 1)
    b.call("y", _refuse)
    a.merge(b)
    assert a.attempted == {"x": 2, "y": 1}
    assert a.failed == {"y": 1}
    assert len(a.latencies_ms["x"]) == 2
