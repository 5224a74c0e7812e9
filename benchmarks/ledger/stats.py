"""Sample summaries: the percentile rule and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: A p95 is reported only with at least this many samples, i.e. at least
#: ten samples beyond it; below that only the median is trustworthy.
P95_MIN_SAMPLES = 200


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def reported(samples: Sequence[float], q: float) -> float | None:
    """The ``q``-th percentile if the sample supports it, else ``None``:
    the median needs one sample, a p95 :data:`P95_MIN_SAMPLES`."""
    needed = P95_MIN_SAMPLES if q >= 95 else 1
    return percentile(samples, q) if len(samples) >= needed else None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (run-to-run spread)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf
