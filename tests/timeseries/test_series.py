"""Unit and property tests for :class:`repro.timeseries.series.TimeSeries`."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MetricsError
from repro.timeseries.series import TimeSeries, merge_sum


def make(ts, vs):
    return TimeSeries(ts, vs)


class TestConstruction:
    def test_sorts_input_by_timestamp(self):
        series = make([3, 1, 2], [30.0, 10.0, 20.0])
        assert list(series.timestamps) == [1, 2, 3]
        assert list(series.values) == [10.0, 20.0, 30.0]

    def test_rejects_duplicate_timestamps(self):
        with pytest.raises(MetricsError, match="duplicate"):
            make([1, 1], [1.0, 2.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(MetricsError, match="same length"):
            make([1, 2], [1.0])

    def test_rejects_infinities(self):
        with pytest.raises(MetricsError, match="infinite"):
            make([1], [math.inf])

    def test_allows_nan_as_missing_data(self):
        series = make([1, 2], [math.nan, 2.0])
        assert len(series) == 2
        assert series.drop_missing().to_pairs() == [(2, 2.0)]

    def test_empty(self):
        series = TimeSeries.empty()
        assert len(series) == 0
        assert not series

    def test_arrays_are_read_only(self):
        series = make([1], [1.0])
        with pytest.raises(ValueError):
            series.values[0] = 5.0


class TestAccessors:
    def test_start_end_span(self):
        series = make([10, 40], [1.0, 2.0])
        assert series.start == 10
        assert series.end == 40
        assert series.span == 30

    def test_empty_start_raises(self):
        with pytest.raises(MetricsError):
            TimeSeries.empty().start

    def test_iteration_yields_pairs(self):
        series = make([1, 2], [1.5, 2.5])
        assert list(series) == [(1, 1.5), (2, 2.5)]

    def test_equality(self):
        assert make([1], [1.0]) == make([1], [1.0])
        assert make([1], [1.0]) != make([1], [2.0])


class TestSlicing:
    def test_between_is_half_open(self):
        series = make([1, 2, 3], [1.0, 2.0, 3.0])
        sliced = series.between(1, 3)
        assert list(sliced.timestamps) == [1, 2]

    def test_between_invalid_range(self):
        with pytest.raises(MetricsError):
            make([1], [1.0]).between(5, 1)

    def test_head_and_tail(self):
        series = make([1, 2, 3], [1.0, 2.0, 3.0])
        assert list(series.head(2).values) == [1.0, 2.0]
        assert list(series.tail(2).values) == [2.0, 3.0]
        assert len(series.tail(10)) == 3

    def test_align_restricts_to_common(self):
        a = make([1, 2, 3], [1.0, 2.0, 3.0])
        b = make([2, 3, 4], [20.0, 30.0, 40.0])
        left, right = a.align(b)
        assert list(left.timestamps) == [2, 3]
        assert list(right.values) == [20.0, 30.0]


class TestArithmetic:
    def test_add_scalar(self):
        series = make([1, 2], [1.0, 2.0]) + 1.0
        assert list(series.values) == [2.0, 3.0]

    def test_add_series_aligns(self):
        a = make([1, 2], [1.0, 2.0])
        b = make([2, 3], [10.0, 20.0])
        assert (a + b).to_pairs() == [(2, 12.0)]

    def test_divide_by_zero_yields_nan(self):
        a = make([1], [1.0])
        b = make([1], [0.0])
        result = a / b
        assert math.isnan(result.values[0])

    def test_scale_and_shift(self):
        series = make([1], [2.0]).scale(3.0)
        assert series.to_pairs() == [(1, 6.0)]


class TestSummaries:
    def test_basic_statistics(self):
        series = make([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0])
        assert series.mean() == 2.5
        assert series.median() == 2.5
        assert series.min() == 1.0
        assert series.max() == 4.0
        assert series.sum() == 10.0

    def test_statistics_ignore_nan(self):
        series = make([1, 2, 3], [1.0, math.nan, 3.0])
        assert series.mean() == 2.0

    def test_quantile_bounds(self):
        series = make([1, 2], [1.0, 2.0])
        with pytest.raises(MetricsError):
            series.quantile(1.5)

    def test_sum_of_empty_is_zero(self):
        assert TimeSeries.empty().sum() == 0.0


class TestMergeSum:
    def test_union_of_timestamps(self):
        a = make([1, 2], [1.0, 2.0])
        b = make([2, 3], [10.0, 20.0])
        merged = merge_sum([a, b])
        assert merged.to_pairs() == [(1, 1.0), (2, 12.0), (3, 20.0)]

    def test_empty_inputs(self):
        assert len(merge_sum([])) == 0
        assert len(merge_sum([TimeSeries.empty()])) == 0


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
values_strategy = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    min_size=1,
    max_size=50,
)


@given(values=values_strategy)
def test_property_construction_preserves_multiset(values):
    ts = list(range(len(values)))
    series = TimeSeries(ts, values)
    assert sorted(series.values.tolist()) == sorted(values)


@given(values=values_strategy)
def test_property_mean_between_min_and_max(values):
    series = TimeSeries(range(len(values)), values)
    # Tolerance scales with magnitude: nanmean of identical large values
    # can differ from them by a few ULPs.
    slack = 1e-9 + 1e-12 * max(abs(v) for v in values)
    assert series.min() - slack <= series.mean() <= series.max() + slack


@given(values=st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=30))
def test_property_merge_sum_is_commutative(values):
    half = len(values) // 2
    a = TimeSeries(range(half), values[:half])
    b = TimeSeries(range(100, 100 + len(values) - half), values[half:])
    assert merge_sum([a, b]) == merge_sum([b, a])


@given(
    values=values_strategy,
    lo=st.integers(min_value=0, max_value=20),
    width=st.integers(min_value=0, max_value=40),
)
def test_property_between_subset(values, lo, width):
    series = TimeSeries(range(len(values)), values)
    sliced = series.between(lo, lo + width)
    assert all(lo <= t < lo + width for t in sliced.timestamps)
    assert len(sliced) == int(
        np.sum((series.timestamps >= lo) & (series.timestamps < lo + width))
    )
