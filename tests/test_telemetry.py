"""The one stats surface: counters, gauges, histograms, spans and merge."""

from __future__ import annotations

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import BUCKET_BOUNDS, Telemetry, merge, readings
from tests.clock import ManualClock


def _bucket(snapshot, name: str) -> int:
    """The one bucket histogram ``name`` has observations in."""
    (index,) = [i for i, n in enumerate(snapshot["histograms"][name]["buckets"]) if n]
    return index


class TestSpans:
    def test_a_manual_clock_span_lands_in_its_exact_bucket_with_its_exact_sum(self):
        clock = ManualClock()
        telemetry = Telemetry(clock)
        with telemetry.span("fit"):
            clock.advance(0.003)  # 3,000,000 ns: 2**21 <= v < 2**22
        with telemetry.span("fit"):
            clock.advance(0.003)
        histogram = telemetry.snapshot()["histograms"]["fit"]
        assert (histogram["count"], histogram["sum"]) == (2, 6_000_000)
        index = _bucket(telemetry.snapshot(), "fit")
        assert histogram["buckets"][index] == 2
        assert BUCKET_BOUNDS[index - 1] <= 3_000_000 < BUCKET_BOUNDS[index]
        assert BUCKET_BOUNDS[index] == 2**22

    def test_a_span_that_raises_is_still_timed(self):
        clock = ManualClock()
        telemetry = Telemetry(clock)
        try:
            with telemetry.span("fit"):
                clock.advance(1.0)
                raise ValueError
        except ValueError:
            pass
        assert telemetry.snapshot()["histograms"]["fit"]["sum"] == 1_000_000_000

    def test_bucket_edges(self):
        telemetry = Telemetry()
        last = len(BUCKET_BOUNDS)
        for value, index in [
            (0, 0), (BUCKET_BOUNDS[0] - 1, 0), (BUCKET_BOUNDS[0], 1),
            (BUCKET_BOUNDS[-1] - 1, last - 1), (BUCKET_BOUNDS[-1], last),
            (10 * BUCKET_BOUNDS[-1], last),
        ]:
            telemetry.observe(str(value), value)
            assert _bucket(telemetry.snapshot(), str(value)) == index, value


class TestCounters:
    def test_concurrent_increments_are_all_counted(self):
        telemetry = Telemetry()
        start = threading.Barrier(8)

        def bump() -> None:
            start.wait()
            for _ in range(10_000):
                telemetry.count("hits")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = telemetry.snapshot()
        assert snapshot["counters"] == {"hits": 80_000}
        assert readings(snapshot, "", "hits", "never") == {"hits": 80_000, "never": 0}

    def test_gauges_are_read_at_snapshot_time_and_prefix_selects(self):
        telemetry = Telemetry()
        depth = [3]
        telemetry.gauges("queue.", lambda: {"depth": depth[0], "open": True})
        telemetry.gauges("cache.", lambda: {"entries": 7})
        telemetry.count("queue.shed")
        assert telemetry.snapshot()["gauges"] == {
            "cache.entries": 7, "queue.depth": 3, "queue.open": 1,
        }
        depth[0] = 5
        telemetry.count("cache.hits")
        telemetry.gauges("cache.", lambda: 1 / 0)  # never read for "queue."
        assert telemetry.snapshot("queue.") == {
            "counters": {"queue.shed": 1},
            "gauges": {"queue.depth": 5, "queue.open": 1},
            "histograms": {},
        }


NAMES = st.sampled_from(["a", "b", "c"])
STREAMS = st.lists(
    st.one_of(
        st.tuples(st.just("count"), NAMES, st.integers(0, 10**6)),
        st.tuples(st.just("observe"), NAMES, st.integers(0, 2**40)),
    ),
    max_size=20,
)


def _fed(*streams) -> Telemetry:
    telemetry = Telemetry()
    for stream in streams:
        for kind, name, value in stream:
            getattr(telemetry, kind)(name, value)
    return telemetry


class TestMerge:
    @settings(max_examples=200, deadline=None)
    @given(STREAMS, STREAMS, STREAMS)
    def test_merge_is_exact(self, first, second, third):
        a, b, c = (_fed(stream).snapshot() for stream in (first, second, third))
        assert merge([a, b]) == merge([b, a])
        assert merge([merge([a, b]), c]) == merge([a, merge([b, c])])
        assert merge([a, b, c]) == _fed(first, second, third).snapshot()
        assert merge([a]) == a

    def test_gauges_add_up(self):
        one, two = Telemetry(), Telemetry()
        one.gauges("", lambda: {"entries": 2})
        two.gauges("", lambda: {"entries": 3})
        assert merge([one.snapshot(), two.snapshot()])["gauges"] == {"entries": 5}
