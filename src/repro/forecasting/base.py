"""Forecaster interface and the Forecast result type."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.errors import ForecastError
from repro.timeseries.series import TimeSeries

__all__ = ["Forecast", "Forecaster"]


@dataclass(frozen=True)
class Forecast:
    """Point forecasts plus an uncertainty band.

    ``yhat_lower``/``yhat_upper`` bound the stated ``level`` (default
    models produce 90% bands, matching the paper's use of 90% intervals
    in its figures).
    """

    timestamps: np.ndarray
    yhat: np.ndarray
    yhat_lower: np.ndarray
    yhat_upper: np.ndarray
    level: float = 0.90

    def __post_init__(self) -> None:
        n = self.timestamps.shape[0]
        for name in ("yhat", "yhat_lower", "yhat_upper"):
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise ForecastError(f"{name} length {arr.shape[0]} != {n}")
        if np.any(self.yhat_lower > self.yhat_upper + 1e-9):
            raise ForecastError("lower band exceeds upper band")

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    def summary(self) -> dict[str, float]:
        """Summary statistics of the forecast horizon.

        These are the "various summary statistics for the predicted
        source rate" the paper's traffic models return — the performance
        models consume the mean and the high quantile (``upper_max``) to
        ask "will the predicted peak overwhelm the topology?".
        """
        if len(self) == 0:
            raise ForecastError("cannot summarize an empty forecast")
        return {
            "mean": float(np.mean(self.yhat)),
            "median": float(np.median(self.yhat)),
            "min": float(np.min(self.yhat)),
            "max": float(np.max(self.yhat)),
            "lower_min": float(np.min(self.yhat_lower)),
            "upper_max": float(np.max(self.yhat_upper)),
            "level": self.level,
        }


class Forecaster(ABC):
    """Base class for traffic forecasters.

    The lifecycle mirrors Prophet's: construct with hyperparameters,
    :meth:`fit` on an observed series, then :meth:`predict` at explicit
    future timestamps or :meth:`forecast` a number of steps ahead at the
    fitted series' native cadence.
    """

    _fitted_series: TimeSeries | None = None

    @abstractmethod
    def fit(self, series: TimeSeries) -> "Forecaster":
        """Fit on history; returns ``self`` for chaining."""

    @abstractmethod
    def predict(self, timestamps: Iterable[int]) -> Forecast:
        """Forecast at explicit timestamps (may include the past)."""

    def _require_fitted(self) -> TimeSeries:
        if self._fitted_series is None:
            raise ForecastError(f"{type(self).__name__} is not fitted")
        return self._fitted_series

    def _remember(self, series: TimeSeries) -> TimeSeries:
        cleaned = series.drop_missing()
        if len(cleaned) < 2:
            raise ForecastError(
                "fitting requires at least two non-missing samples, "
                f"got {len(cleaned)}"
            )
        self._fitted_series = cleaned
        return cleaned

    def step_seconds(self) -> int:
        """Native cadence of the fitted series (median sample spacing)."""
        series = self._require_fitted()
        diffs = np.diff(series.timestamps)
        if diffs.size == 0:
            raise ForecastError("cannot infer cadence from one sample")
        return int(np.median(diffs))

    def forecast(self, steps: int, step_seconds: int | None = None) -> Forecast:
        """Forecast ``steps`` future points after the fitted history.

        ``step_seconds`` defaults to the fitted cadence.  This implements
        the paper's "the user also specifies the future time period over
        which the source traffic should be forecast".
        """
        if steps <= 0:
            raise ForecastError("steps must be positive")
        series = self._require_fitted()
        step = step_seconds or self.step_seconds()
        start = series.end + step
        future = np.arange(start, start + steps * step, step, dtype=np.int64)
        return self.predict(future)
