"""An immutable time series of (timestamp, value) points.

Timestamps are integer seconds since an arbitrary epoch (the simulator uses
simulation seconds; nothing in the package requires wall-clock time).
Values are floats.  All operations return new series; nothing mutates in
place, which keeps series safe to share between the metrics store, the
calibration code and the forecasting models.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import MetricsError

__all__ = ["TimeSeries"]


class TimeSeries:
    """A sorted, immutable sequence of timestamped float samples.

    Parameters
    ----------
    timestamps:
        Sample times in seconds.  Duplicates are rejected; input order is
        normalised to ascending.
    values:
        Sample values, same length as ``timestamps``.  NaNs are permitted
        (they represent missing data for the forecasting models) but
        infinities are rejected.
    """

    __slots__ = ("_timestamps", "_values")

    def __init__(
        self,
        timestamps: Iterable[float],
        values: Iterable[float],
    ) -> None:
        ts = np.asarray(list(timestamps), dtype=np.int64)
        vs = np.asarray(list(values), dtype=np.float64)
        if ts.shape != vs.shape:
            raise MetricsError(
                f"timestamps ({ts.shape[0]}) and values ({vs.shape[0]}) "
                "must have the same length"
            )
        if ts.ndim != 1:
            raise MetricsError("timestamps must be one-dimensional")
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        vs = vs[order]
        if ts.size > 1 and np.any(np.diff(ts) == 0):
            raise MetricsError("duplicate timestamps are not allowed")
        if np.any(np.isinf(vs)):
            raise MetricsError("infinite values are not allowed")
        ts.setflags(write=False)
        vs.setflags(write=False)
        self._timestamps = ts
        self._values = vs

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "TimeSeries":
        """Return a series with no samples."""
        return cls([], [])

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def timestamps(self) -> np.ndarray:
        """Sample times as a read-only ``int64`` array."""
        return self._timestamps

    @property
    def values(self) -> np.ndarray:
        """Sample values as a read-only ``float64`` array."""
        return self._values

    @property
    def start(self) -> int:
        """Timestamp of the first sample."""
        self._require_nonempty()
        return int(self._timestamps[0])

    @property
    def end(self) -> int:
        """Timestamp of the last sample."""
        self._require_nonempty()
        return int(self._timestamps[-1])

    @property
    def span(self) -> int:
        """Seconds between first and last sample (0 for singletons)."""
        self._require_nonempty()
        return self.end - self.start

    def __len__(self) -> int:
        return int(self._timestamps.size)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[tuple[int, float]]:
        for t, v in zip(self._timestamps, self._values):
            yield int(t), float(v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return bool(
            np.array_equal(self._timestamps, other._timestamps)
            and np.array_equal(self._values, other._values, equal_nan=True)
        )

    def __repr__(self) -> str:
        if not self:
            return "TimeSeries(empty)"
        return (
            f"TimeSeries(n={len(self)}, start={self.start}, end={self.end})"
        )

    def _require_nonempty(self) -> None:
        if not self:
            raise MetricsError("operation requires a non-empty series")

    # ------------------------------------------------------------------
    # Slicing and alignment
    # ------------------------------------------------------------------
    def between(self, start: int, end: int) -> "TimeSeries":
        """Return samples with ``start <= timestamp < end``."""
        if end < start:
            raise MetricsError(f"invalid range [{start}, {end})")
        mask = (self._timestamps >= start) & (self._timestamps < end)
        return TimeSeries(self._timestamps[mask], self._values[mask])

    def tail(self, n: int) -> "TimeSeries":
        """Return the last ``n`` samples (all samples if fewer exist)."""
        if n < 0:
            raise MetricsError("tail length must be non-negative")
        return TimeSeries(self._timestamps[-n:] if n else [], self._values[-n:] if n else [])

    def head(self, n: int) -> "TimeSeries":
        """Return the first ``n`` samples (all samples if fewer exist)."""
        if n < 0:
            raise MetricsError("head length must be non-negative")
        return TimeSeries(self._timestamps[:n], self._values[:n])

    def drop_missing(self) -> "TimeSeries":
        """Return the series without NaN samples."""
        mask = ~np.isnan(self._values)
        return TimeSeries(self._timestamps[mask], self._values[mask])

    def align(self, other: "TimeSeries") -> tuple["TimeSeries", "TimeSeries"]:
        """Restrict both series to their common timestamps.

        Returns a pair ``(self', other')`` sampled at exactly the shared
        timestamps, in order.  Useful before computing ratios such as the
        output/input coefficient in Fig. 5 of the paper.
        """
        common = np.intersect1d(self._timestamps, other._timestamps)
        left = self._select(common)
        right = other._select(common)
        return left, right

    def _select(self, wanted: np.ndarray) -> "TimeSeries":
        idx = np.searchsorted(self._timestamps, wanted)
        return TimeSeries(wanted, self._values[idx])

    # ------------------------------------------------------------------
    # Arithmetic (aligned on shared timestamps)
    # ------------------------------------------------------------------
    def _binary(self, other: "TimeSeries | float", op) -> "TimeSeries":
        if isinstance(other, TimeSeries):
            a, b = self.align(other)
            return TimeSeries(a.timestamps, op(a.values, b.values))
        return TimeSeries(self._timestamps, op(self._values, float(other)))

    def __add__(self, other: "TimeSeries | float") -> "TimeSeries":
        return self._binary(other, np.add)

    def __sub__(self, other: "TimeSeries | float") -> "TimeSeries":
        return self._binary(other, np.subtract)

    def __mul__(self, other: "TimeSeries | float") -> "TimeSeries":
        return self._binary(other, np.multiply)

    def __truediv__(self, other: "TimeSeries | float") -> "TimeSeries":
        def safe_div(a, b):
            b = np.asarray(b, dtype=np.float64)
            out = np.full(np.broadcast(a, b).shape, np.nan)
            np.divide(a, b, out=out, where=b != 0)
            return out

        return self._binary(other, safe_div)

    def scale(self, factor: float) -> "TimeSeries":
        """Return the series with every value multiplied by ``factor``."""
        return self * factor

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Arithmetic mean, ignoring NaNs."""
        self._require_nonempty()
        return float(np.nanmean(self._values))

    def median(self) -> float:
        """Median, ignoring NaNs."""
        self._require_nonempty()
        return float(np.nanmedian(self._values))

    def std(self) -> float:
        """Population standard deviation, ignoring NaNs."""
        self._require_nonempty()
        return float(np.nanstd(self._values))

    def min(self) -> float:
        """Minimum value, ignoring NaNs."""
        self._require_nonempty()
        return float(np.nanmin(self._values))

    def max(self) -> float:
        """Maximum value, ignoring NaNs."""
        self._require_nonempty()
        return float(np.nanmax(self._values))

    def sum(self) -> float:
        """Sum of values, ignoring NaNs."""
        return float(np.nansum(self._values)) if len(self) else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``), ignoring NaNs."""
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile must be in [0, 1], got {q}")
        self._require_nonempty()
        return float(np.nanquantile(self._values, q))

    def to_pairs(self) -> list[tuple[int, float]]:
        """Return the samples as a list of ``(timestamp, value)`` tuples."""
        return [(int(t), float(v)) for t, v in zip(self._timestamps, self._values)]


def merge_sum(series: Sequence[TimeSeries]) -> TimeSeries:
    """Sum several series sample-wise over the union of their timestamps.

    Timestamps present in only a subset of the inputs use the values that
    exist (missing inputs contribute zero).  This is how per-instance
    counters roll up into a component-level counter (Eq. 6 in the paper).
    """
    populated = [s for s in series if len(s)]
    if not populated:
        return TimeSeries.empty()
    all_ts = np.unique(np.concatenate([s.timestamps for s in populated]))
    if all_ts.size == 0:
        return TimeSeries.empty()
    total = np.zeros(all_ts.shape, dtype=np.float64)
    for s in series:
        if not len(s):
            continue
        idx = np.searchsorted(all_ts, s.timestamps)
        np.add.at(total, idx, np.nan_to_num(s.values))
    return TimeSeries(all_ts, total)
