"""The percentile rule and the spread measure."""

import pytest

from benchmarks.ledger.stats import (
    P95_MIN_SAMPLES, iqr_share, percentile, quartiles, reported,
)


def test_p95_is_withheld_below_the_sample_floor():
    few = [float(i) for i in range(P95_MIN_SAMPLES - 1)]
    assert reported(few, 50) == 99.0
    assert reported(few, 95) is None


def test_p95_is_reported_at_the_sample_floor():
    enough = [float(i) for i in range(1, P95_MIN_SAMPLES + 1)]
    assert reported(enough, 95) == 190.0  # ten samples lie beyond it
    assert reported(enough, 50) == 100.0


def test_empty_sample_has_no_statistics():
    assert reported([], 50) is None and reported([], 95) is None
    with pytest.raises(ValueError):
        percentile([], 50)


def test_nearest_rank_percentile():
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert percentile([5.0, 1.0, 3.0], 100) == 5.0
    assert percentile([5.0, 1.0, 3.0], 1) == 1.0


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == (10.5, 12.0, 13.5)
    assert iqr_share(values) == pytest.approx(0.25)
    assert iqr_share([7.0]) == 0.0
