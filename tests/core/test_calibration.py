"""Tests for segmented regression and metrics-driven calibration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calibration import (
    calibrate_sink,
    component_observations,
    fit_linear,
    fit_piecewise_linear,
)
from repro.errors import CalibrationError


def piecewise_data(alpha=7.63, sp=11e6, n=40, noise=0.0, seed=0, x_max=2.0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.05 * sp, x_max * sp, n)
    y = alpha * np.minimum(x, sp)
    if noise:
        y = y * (1 + rng.normal(0, noise, n))
    return x, y


class TestFitLinear:
    def test_exact_line(self):
        x = np.linspace(0, 10, 20)
        fit = fit_linear(x, 3.0 * x + 2.0)
        assert fit.slope == pytest.approx(3.0)
        assert fit.intercept == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_through_origin(self):
        x = np.linspace(1, 10, 10)
        fit = fit_linear(x, 4.0 * x, through_origin=True)
        assert fit.slope == pytest.approx(4.0)
        assert fit.intercept == 0.0

    def test_predict(self):
        fit = fit_linear(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        assert fit.predict(2.0) == pytest.approx(5.0)

    def test_needs_two_points(self):
        with pytest.raises(CalibrationError, match="at least 2"):
            fit_linear(np.array([1.0]), np.array([1.0]))

    def test_all_zero_x_through_origin(self):
        with pytest.raises(CalibrationError, match="undefined"):
            fit_linear(np.zeros(5), np.ones(5), through_origin=True)

    def test_nan_rows_dropped(self):
        x = np.array([0.0, 1.0, 2.0, np.nan])
        y = np.array([0.0, 2.0, 4.0, 100.0])
        fit = fit_linear(x, y)
        assert fit.slope == pytest.approx(2.0)
        assert fit.n_points == 3


class TestFitPiecewise:
    def test_recovers_exact_parameters(self):
        x, y = piecewise_data()
        fit = fit_piecewise_linear(x, y)
        assert fit.alpha == pytest.approx(7.63, rel=1e-3)
        assert fit.saturation_point == pytest.approx(11e6, rel=0.02)
        assert fit.saturation_throughput == pytest.approx(
            7.63 * 11e6, rel=0.02
        )
        assert fit.saturated

    def test_recovers_with_noise(self):
        x, y = piecewise_data(noise=0.02, seed=3)
        fit = fit_piecewise_linear(x, y)
        assert fit.alpha == pytest.approx(7.63, rel=0.03)
        assert fit.saturation_point == pytest.approx(11e6, rel=0.10)

    def test_pure_linear_data_reports_no_saturation(self):
        x = np.linspace(1, 100, 30)
        fit = fit_piecewise_linear(x, 2.0 * x)
        assert not fit.saturated
        assert math.isinf(fit.saturation_point)
        assert fit.alpha == pytest.approx(2.0)

    def test_two_points_per_segment_suffice(self):
        """The paper: one point per interval is enough to draw Fig. 3."""
        x = np.array([5e6, 10e6, 15e6, 20e6])
        y = 7.63 * np.minimum(x, 11e6)
        fit = fit_piecewise_linear(x, y)
        assert fit.alpha == pytest.approx(7.63, rel=0.01)
        assert 10e6 <= fit.saturation_point <= 15e6

    def test_predict_matches_model_form(self):
        x, y = piecewise_data()
        fit = fit_piecewise_linear(x, y)
        predicted = fit.predict(x)
        assert np.allclose(predicted, y, rtol=0.02)

    def test_validation(self):
        with pytest.raises(CalibrationError):
            fit_piecewise_linear(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(CalibrationError, match="non-negative"):
            fit_piecewise_linear(
                np.array([-1.0, 2.0, 3.0, 4.0]), np.array([1.0, 2.0, 3.0, 4.0])
            )
        with pytest.raises(CalibrationError, match="zero rate"):
            fit_piecewise_linear(np.zeros(5), np.zeros(5))


class TestCalibrateComponent:
    def test_multi_breakpoint_truth_fits_a_compromise(self):
        # With biased shares the true component curve has one breakpoint
        # per distinct share; the paper's single-breakpoint family lands
        # between the first and last true breakpoints.  This documents
        # the model's known approximation, not a bug.
        shares = np.array([0.5, 0.3, 0.2])
        x = np.linspace(1e6, 2 * 55e6, 60)
        y = np.zeros_like(x)
        for share in shares:
            y += 7.63 * np.minimum(share * x, 11e6)
        fit = fit_piecewise_linear(x, y)
        assert 11e6 / 0.5 <= fit.saturation_point <= 11e6 / 0.2

    def test_calibrate_sink(self):
        offered = np.linspace(10e6, 400e6, 50)
        processed = np.minimum(offered, 210e6)
        model, fit = calibrate_sink("counter", offered, processed, 3)
        assert model.instance.alphas == {}
        assert model.instance.saturation_point == pytest.approx(
            70e6, rel=0.03
        )
        assert fit.alpha == pytest.approx(1.0, rel=0.01)

    def test_calibrate_sink_unsaturated(self):
        offered = np.linspace(10e6, 100e6, 20)
        model, fit = calibrate_sink("counter", offered, offered.copy(), 3)
        assert math.isinf(model.instance.saturation_point)


class TestComponentObservations:
    def test_reads_aligned_series(self, deployed_wordcount):
        _, _, _, store, _ = deployed_wordcount
        obs = component_observations(
            store, "word-count", "splitter", "sentence-spout"
        )
        assert set(obs) == {"source", "input", "output", "cpu"}
        lengths = {v.shape[0] for v in obs.values()}
        assert len(lengths) == 1
        assert lengths.pop() > 3

    def test_end_to_end_calibration_from_simulation(self, deployed_wordcount):
        _, _, logic, store, _ = deployed_wordcount
        obs = component_observations(
            store, "word-count", "splitter", "sentence-spout"
        )
        fit = fit_piecewise_linear(obs["source"], obs["output"])
        true_alpha = logic["splitter"].alphas["default"]
        true_sp = logic["splitter"].capacity_tps * 60 * 2
        assert fit.alpha == pytest.approx(true_alpha, rel=0.02)
        assert fit.saturation_point == pytest.approx(true_sp, rel=0.10)

    def test_warmup_must_leave_data(self, deployed_wordcount):
        _, _, _, store, _ = deployed_wordcount
        with pytest.raises(CalibrationError, match="warmup"):
            component_observations(
                store,
                "word-count",
                "splitter",
                "sentence-spout",
                warmup_minutes=10_000,
            )


@settings(max_examples=25)
@given(
    alpha=st.floats(min_value=0.1, max_value=50.0),
    sp=st.floats(min_value=1e3, max_value=1e9),
    noise=st.floats(min_value=0.0, max_value=0.02),
)
def test_property_piecewise_fit_recovers_alpha(alpha, sp, noise):
    x, y = piecewise_data(alpha=alpha, sp=sp, noise=noise, seed=1)
    fit = fit_piecewise_linear(x, y)
    assert fit.alpha == pytest.approx(alpha, rel=0.08)


@settings(max_examples=25)
@given(
    alpha=st.floats(min_value=0.1, max_value=50.0),
    sp=st.floats(min_value=1e3, max_value=1e9),
)
def test_property_piecewise_fit_recovers_sp_exactly_without_noise(alpha, sp):
    x, y = piecewise_data(alpha=alpha, sp=sp, noise=0.0)
    fit = fit_piecewise_linear(x, y)
    assert fit.saturation_point == pytest.approx(sp, rel=0.05)
