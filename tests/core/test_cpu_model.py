"""Tests for the CPU-load prediction use case (paper Section V-E)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.component_model import ComponentModel
from repro.core.cpu_model import CpuModel, fit_cpu_model
from repro.core.instance_model import InstanceModel
from repro.errors import ModelError


def splitter_component(parallelism=3):
    return ComponentModel(
        "splitter", InstanceModel({"default": 7.63}, 11e6), parallelism
    )


class TestCpuModel:
    def test_instance_cpu_linear(self):
        model = CpuModel("splitter", psi=1e-7, base_cores=0.1)
        assert model.instance_cpu(0.0) == pytest.approx(0.1)
        assert model.instance_cpu(10e6) == pytest.approx(0.1 + 1.0)

    def test_negative_input_rejected(self):
        with pytest.raises(ModelError):
            CpuModel("c", 1e-7).instance_cpu(-1.0)

    def test_negative_psi_rejected(self):
        with pytest.raises(ModelError):
            CpuModel("c", -1.0)

    def test_component_cpu_sums_instances(self):
        cpu = CpuModel("splitter", psi=1e-7, base_cores=0.0)
        component = splitter_component(3)
        # 30M split three ways: each instance sees 10M -> 1 core each.
        assert cpu.component_cpu(component, 30e6) == pytest.approx(3.0)

    def test_component_cpu_saturates(self):
        """CPU is maximal once instances saturate (paper assumption)."""
        cpu = CpuModel("splitter", psi=1e-7, base_cores=0.0)
        component = splitter_component(3)
        at_sp = cpu.component_cpu(component, 33e6)
        beyond = cpu.component_cpu(component, 66e6)
        assert beyond == pytest.approx(at_sp)
        assert at_sp == pytest.approx(3 * 1.1)

    def test_predict_curve_shape(self):
        cpu = CpuModel("splitter", psi=1e-7)
        component = splitter_component(2)
        rates = np.array([0.0, 11e6, 22e6, 44e6])
        curve = np.asarray([cpu.component_cpu(component, r) for r in rates])
        assert curve.shape == (4,)
        assert np.all(np.diff(curve) >= -1e-9)  # non-decreasing


class TestFitCpuModel:
    def test_recovers_slope_and_intercept(self):
        inputs = np.linspace(1e6, 10e6, 30)
        cores = 0.2 + 1.2e-7 * inputs
        model, fit = fit_cpu_model("splitter", inputs, cores)
        assert model.psi == pytest.approx(1.2e-7, rel=1e-6)
        assert model.base_cores == pytest.approx(0.2, rel=1e-3)
        assert fit.r_squared == pytest.approx(1.0)

    def test_through_origin_option(self):
        inputs = np.linspace(1e6, 10e6, 30)
        cores = 1.2e-7 * inputs
        model, _ = fit_cpu_model(
            "splitter", inputs, cores, with_intercept=False
        )
        assert model.base_cores == 0.0
        assert model.psi == pytest.approx(1.2e-7, rel=1e-6)

    def test_rejects_decreasing_cpu(self):
        inputs = np.linspace(1e6, 10e6, 10)
        cores = 5.0 - 1e-7 * inputs
        with pytest.raises(ModelError, match="negative CPU slope"):
            fit_cpu_model("splitter", inputs, cores)

    def test_chained_prediction_matches_paper_shape(self):
        """Section V-E chained prediction: error accumulates but stays low.

        Build truth from the simulator's CPU formula, fit psi from p=3
        observations, predict p=2 and p=4 curves, and check single-digit
        percentage error at saturation — the paper's 4.8% / 3.0% bands.
        """
        rng = np.random.default_rng(0)
        capacity = 11e6
        worker, gateway = 0.85, 1.8e-7 / 60  # per tuples-per-minute
        inputs = np.linspace(0.5e6, capacity, 40)
        truth = worker * inputs / capacity + gateway * inputs * (1 + 7.63)
        noisy = truth * (1 + rng.normal(0, 0.01, inputs.shape[0]))
        model, _ = fit_cpu_model("splitter", inputs, noisy)
        for p in (2, 4):
            component = splitter_component(p)
            source = p * capacity * 2  # deep saturation
            predicted = model.component_cpu(component, source)
            true_sat = p * (
                worker + gateway * capacity * (1 + 7.63)
            )
            error = abs(predicted - true_sat) / true_sat
            assert error < 0.06
