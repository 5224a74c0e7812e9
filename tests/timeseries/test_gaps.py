"""Gap detection/repair helpers and complete-minute aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MetricsError
from repro.timeseries.gaps import fill_gaps, gap_fraction, missing_timestamps
from repro.timeseries.series import TimeSeries
from repro.timeseries.store import MetricsStore


def _series(stamps, values=None):
    stamps = np.asarray(stamps, dtype=np.int64)
    if values is None:
        values = np.arange(len(stamps), dtype=np.float64)
    return TimeSeries(stamps, np.asarray(values, dtype=np.float64))


class TestMissingTimestamps:
    def test_healthy_grid_has_none(self):
        assert missing_timestamps(_series([0, 60, 120, 180])).size == 0

    def test_interior_gaps_found(self):
        missing = missing_timestamps(_series([0, 60, 240, 300]))
        assert missing.tolist() == [120, 180]

    def test_short_series_have_no_interior(self):
        assert missing_timestamps(_series([0])).size == 0
        assert missing_timestamps(_series([])).size == 0

    def test_bad_step_rejected(self):
        with pytest.raises(MetricsError):
            missing_timestamps(_series([0, 60]), step=0)


class TestGapFraction:
    def test_zero_for_healthy(self):
        assert gap_fraction(_series([0, 60, 120])) == 0.0

    def test_fraction_of_expected_grid(self):
        # grid 0..300 expects 6 samples, 2 are missing
        assert gap_fraction(_series([0, 60, 240, 300])) == pytest.approx(2 / 6)


class TestFillGaps:
    def test_no_gaps_returns_same_data(self):
        series = _series([0, 60, 120])
        assert fill_gaps(series) is series

    def test_linear_interpolation(self):
        series = _series([0, 60, 240], [0.0, 10.0, 40.0])
        filled = fill_gaps(series)
        assert filled.timestamps.tolist() == [0, 60, 120, 180, 240]
        assert filled.values.tolist() == [0.0, 10.0, 20.0, 30.0, 40.0]


class TestAggregateComplete:
    @pytest.fixture()
    def store(self):
        store = MetricsStore()
        # Two instances; instance b missed minute 120.
        for ts in (0, 60, 120, 180):
            store.write("execute-count", ts, 10.0,
                        {"component": "c", "instance": "a"})
        for ts in (0, 60, 180):
            store.write("execute-count", ts, 20.0,
                        {"component": "c", "instance": "b"})
        return store

    def test_partial_minutes_dropped_and_reported(self, store):
        series, degraded = store.aggregate_complete(
            "execute-count", {"component": "c"}
        )
        assert series.timestamps.tolist() == [0, 60, 180]
        assert series.values.tolist() == [30.0, 30.0, 30.0]
        assert degraded == [120]

    def test_matches_aggregate_on_healthy_data(self, store):
        series, degraded = store.aggregate_complete(
            "execute-count", {"component": "c", "instance": "a"}
        )
        full = store.aggregate(
            "execute-count", {"component": "c", "instance": "a"}
        )
        assert degraded == []
        assert np.array_equal(series.timestamps, full.timestamps)
        assert np.array_equal(series.values, full.values)

    def test_interior_cadence_gap_reported(self):
        store = MetricsStore()
        for ts in (0, 60, 240):
            store.write("execute-count", ts, 1.0, {"instance": "a"})
        series, degraded = store.aggregate_complete("execute-count")
        assert series.timestamps.tolist() == [0, 60, 240]
        assert degraded == [120, 180]

    def test_no_match_raises(self):
        with pytest.raises(MetricsError, match="no series match"):
            MetricsStore().aggregate_complete("execute-count")

    def test_member_outside_the_window_is_not_an_instance(self):
        """Three instances report minutes 1-5, two of them 6-12 (a
        scale-down): from minute 6 on every minute is complete."""
        store = MetricsStore()
        tags = {"topology": "t", "component": "c"}
        for index, last in enumerate((12, 12, 5)):
            store.write_many(
                "execute-count", [(60 * m, 10.0) for m in range(1, last + 1)],
                {**tags, "instance": f"c_{index}"},
            )
        series, degraded = store.aggregate_complete("execute-count", tags, start=360)
        assert series.timestamps.tolist() == [60 * m for m in range(6, 13)]
        assert series.values.tolist() == [20.0] * 7
        assert degraded == []
        # Without the window the third instance is a dropout from minute 6.
        _, degraded = store.aggregate_complete("execute-count", tags)
        assert degraded == [60 * m for m in range(6, 13)]

    def test_member_emptied_by_retention_is_not_an_instance(self):
        store = MetricsStore(retention_seconds=300)
        tags = {"topology": "t", "component": "c"}
        store.write_many(
            "execute-count", [(60, 1.0), (120, 1.0)], {**tags, "instance": "removed"}
        )
        for minute in range(1, 13):
            store.write("execute-count", 60 * minute, 2.0, {**tags, "instance": "kept"})
        assert len(store.get("execute-count", {**tags, "instance": "removed"})) == 0
        series, degraded = store.aggregate_complete("execute-count", tags)
        assert degraded == []
        assert series.values.tolist() == [2.0] * len(series)

    def test_window_holding_no_sample_is_empty_not_an_error(self):
        store = MetricsStore()
        store.write("execute-count", 60, 1.0, {"instance": "a"})
        series, degraded = store.aggregate_complete("execute-count", start=600)
        assert len(series) == 0 and degraded == []
