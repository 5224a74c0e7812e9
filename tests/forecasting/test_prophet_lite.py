"""Tests for the ProphetLite forecaster (the Prophet substitute).

The paper's requirements: additive trend + seasonality, robustness to
missing data, trend shifts and large outliers, per-period forecasts with
summary statistics.  Each requirement has a test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ForecastError
from repro.forecasting.base import Forecast
from repro.forecasting.prophet_lite import ProphetLite, Seasonality
from repro.forecasting.seasonality import DAY_SECONDS
from repro.timeseries.series import TimeSeries

STEP = 600  # ten-minute cadence


def seasonal_series(days=10, noise=0.0, trend=0.0, seed=0):
    rng = np.random.default_rng(seed)
    n = days * DAY_SECONDS // STEP
    t = np.arange(n) * STEP
    y = (
        100.0
        + 20.0 * np.sin(2 * np.pi * t / DAY_SECONDS)
        + trend * t
        + rng.normal(0, noise, n)
    )
    return TimeSeries(t, y)


def daily_model(**kwargs):
    defaults = dict(
        seasonalities=[Seasonality.daily(order=3)], n_changepoints=5
    )
    defaults.update(kwargs)
    return ProphetLite(**defaults)


class TestSeasonality:
    def test_daily_weekly_factories(self):
        assert Seasonality.daily().period_seconds == DAY_SECONDS
        assert Seasonality.weekly().period_seconds == 7 * DAY_SECONDS

    def test_validation(self):
        with pytest.raises(ForecastError):
            Seasonality("bad", -1, 2)
        with pytest.raises(ForecastError):
            Seasonality("bad", 10, 0)


class TestFit:
    def test_recovers_seasonal_signal(self):
        series = seasonal_series(noise=1.0)
        model = daily_model().fit(series)
        forecast = model.forecast(steps=144, step_seconds=STEP)
        # The forecast must reproduce the daily swing, not a flat mean.
        assert forecast.yhat.max() > 110
        assert forecast.yhat.min() < 90

    def test_recovers_linear_trend(self):
        series = seasonal_series(trend=1e-4, noise=0.5)
        model = daily_model().fit(series)
        forecast = model.forecast(steps=144, step_seconds=STEP)
        history_mean = series.tail(144).mean()
        assert forecast.yhat.mean() > history_mean  # trend continues up

    def test_handles_missing_data(self):
        series = seasonal_series(noise=1.0)
        values = series.values.copy()
        values[::7] = np.nan  # 14% missing
        gappy = TimeSeries(series.timestamps, values)
        model = daily_model().fit(gappy)
        forecast = model.forecast(steps=10, step_seconds=STEP)
        assert np.all(np.isfinite(forecast.yhat))

    def test_robust_mode_shrugs_off_outliers(self):
        series = seasonal_series(noise=1.0, seed=3)
        values = series.values.copy()
        outlier_idx = np.arange(10, len(values), 97)
        values[outlier_idx] += 500.0  # massive spikes
        dirty = TimeSeries(series.timestamps, values)
        robust = daily_model(robust=True).fit(dirty)
        plain = daily_model(robust=False).fit(dirty)
        clean_forecast = daily_model().fit(series).forecast(50, STEP)
        robust_error = np.abs(
            robust.forecast(50, STEP).yhat - clean_forecast.yhat
        ).mean()
        plain_error = np.abs(
            plain.forecast(50, STEP).yhat - clean_forecast.yhat
        ).mean()
        assert robust_error < plain_error

    def test_adapts_to_trend_shift(self):
        # Slope changes halfway: the hinge basis must absorb it.
        n = 10 * DAY_SECONDS // STEP
        t = np.arange(n) * STEP
        mid = t[n // 2]
        y = 100.0 + 0.00002 * t + 0.0002 * np.maximum(0, t - mid)
        series = TimeSeries(t, y)
        model = ProphetLite(
            seasonalities=[], n_changepoints=10, changepoint_prior_scale=10.0
        ).fit(series)
        forecast = model.forecast(steps=20, step_seconds=STEP)
        # Continue at the NEW slope, not the average slope.
        expected = 100.0 + 0.00002 * forecast.timestamps + 0.0002 * (
            forecast.timestamps - mid
        )
        assert np.allclose(forecast.yhat, expected, rtol=0.03)

    def test_fit_requires_two_points(self):
        with pytest.raises(ForecastError, match="at least two"):
            daily_model().fit(TimeSeries([0], [1.0]))

    def test_fit_returns_self(self):
        model = daily_model()
        assert model.fit(seasonal_series()) is model


class TestPredict:
    def test_unfitted_predict_raises(self):
        with pytest.raises(ForecastError, match="not fitted"):
            daily_model().predict([0])

    def test_forecast_requires_positive_steps(self):
        model = daily_model().fit(seasonal_series())
        with pytest.raises(ForecastError):
            model.forecast(0)

    def test_bands_bracket_point_forecast(self):
        model = daily_model().fit(seasonal_series(noise=2.0))
        forecast = model.forecast(steps=100, step_seconds=STEP)
        assert np.all(forecast.yhat_lower <= forecast.yhat + 1e-9)
        assert np.all(forecast.yhat <= forecast.yhat_upper + 1e-9)

    def test_bands_widen_with_horizon(self):
        model = ProphetLite(
            seasonalities=[], n_changepoints=8, seed=1
        ).fit(seasonal_series(noise=2.0, trend=1e-4))
        forecast = model.forecast(steps=1000, step_seconds=STEP)
        near = forecast.yhat_upper[:50] - forecast.yhat_lower[:50]
        far = forecast.yhat_upper[-50:] - forecast.yhat_lower[-50:]
        assert far.mean() > near.mean()

    def test_floor_clamps_negative_forecasts(self):
        # A steep negative trend would go below zero without the floor.
        t = np.arange(100) * STEP
        y = 100.0 - 1.2 * np.arange(100)
        model = ProphetLite(seasonalities=[], n_changepoints=0).fit(
            TimeSeries(t, y)
        )
        forecast = model.forecast(steps=100, step_seconds=STEP)
        assert np.all(forecast.yhat >= 0.0)

    def test_in_sample_prediction_close_to_data(self):
        series = seasonal_series(noise=0.5)
        model = daily_model().fit(series)
        fitted = model.predict(series.timestamps)
        residual = np.abs(fitted.yhat - series.values).mean()
        assert residual < 2.0

    def test_summary_fields(self):
        model = daily_model().fit(seasonal_series())
        summary = model.forecast(steps=10, step_seconds=STEP).summary()
        for key in ("mean", "median", "min", "max", "lower_min", "upper_max"):
            assert key in summary
        assert summary["upper_max"] >= summary["max"]

    def test_components_decomposition(self):
        series = seasonal_series(noise=0.5)
        model = daily_model().fit(series)
        parts = model.components(series.timestamps)
        assert set(parts) == {"trend", "daily"}
        recomposed = parts["trend"] + parts["daily"]
        assert np.allclose(recomposed, series.values, atol=5.0)


class TestForecastType:
    def test_validation(self):
        ts = np.array([0, 1])
        with pytest.raises(ForecastError):
            Forecast(ts, np.zeros(2), np.ones(2), np.zeros(2))  # lower>upper
        with pytest.raises(ForecastError):
            Forecast(ts, np.zeros(3), np.zeros(2), np.zeros(2))

    def test_hyperparameter_validation(self):
        with pytest.raises(ForecastError):
            ProphetLite(interval_level=0.5)
        with pytest.raises(ForecastError):
            ProphetLite(changepoint_prior_scale=0)
        with pytest.raises(ForecastError):
            ProphetLite(uncertainty_samples=-1)
