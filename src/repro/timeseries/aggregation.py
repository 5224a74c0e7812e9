"""The component rollup shared by the store's aggregations.

This is the operation Caladrius's metrics interface performs when it
"summarizes performance metrics from a given metrics source" (paper
Section III-C2): per-instance counters summed into one component series.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.timeseries.series import TimeSeries, merge_sum

__all__ = ["rollup"]


def rollup(series: Sequence[TimeSeries]) -> TimeSeries:
    """Sum several series over the union of their timestamps.

    This is the component-level rollup of per-instance counters
    (Eq. 6 of the paper: a component's rate is the sum of its instances').
    """
    return merge_sum(list(series))
