"""Tests for the component rollup."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.timeseries.aggregation import rollup
from repro.timeseries.series import TimeSeries


def make(ts, vs):
    return TimeSeries(ts, vs)


class TestRollup:
    def test_rollup_sums_instances_into_component(self):
        instances = [
            make([0, 60], [10.0, 20.0]),
            make([0, 60], [1.0, 2.0]),
            make([60, 120], [100.0, 200.0]),
        ]
        total = rollup(instances)
        assert total.to_pairs() == [(0, 11.0), (60, 122.0), (120, 200.0)]

    def test_rollup_empty(self):
        assert len(rollup([])) == 0


@given(
    groups=st.lists(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    )
)
def test_property_rollup_total_is_sum_of_parts(groups):
    series = [TimeSeries(range(3), values) for values in groups]
    total = rollup(series)
    expected = np.sum([np.asarray(v) for v in groups], axis=0)
    assert np.allclose(total.values, expected)
