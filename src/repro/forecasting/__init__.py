"""Forecasting substrate: the Prophet-flavoured traffic models.

Caladrius forecasts topology source throughput with Facebook's Prophet,
"a framework for generalized time series modelling ... based on an
additive model where non-linear trends are fit with periodic (yearly,
weekly, daily, etc.) seasonality.  It is robust to missing data, shifts
in the trend, and large outliers" (paper Section IV-A).  Prophet is not
available offline, so this package re-implements the same additive
decomposition:

* :class:`~repro.forecasting.prophet_lite.ProphetLite` — piecewise-linear
  trend with automatic changepoints plus Fourier seasonality, fit by
  (optionally robust) ridge regression, with uncertainty intervals from
  residual spread and simulated future trend changes.
* :class:`~repro.forecasting.summary.SummaryForecaster` — the paper's
  "Statistic Summary Traffic Model" for stable traffic profiles.
* :mod:`~repro.forecasting.backtest` — rolling-origin evaluation.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "backtest": ("rolling_origin_backtest",),
        "holt_winters": ("HoltWinters",),
        "prophet_lite": ("ProphetLite", "Seasonality"),
        "summary": ("SummaryForecaster",),
    },
)
