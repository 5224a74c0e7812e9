"""Shape assertions for every experiment of the accuracy harness.

The bounds are the properties the paper's figures exhibit and the
ablations and model-quality experiments demonstrate — piecewise-linear
curves, bimodal backpressure, Eq. 9 scaling, low prediction errors, each
assumption breaking where it should.  Each holds on the session's quick
run and on the committed full-scale records (``ACCURACY.json``, which
``python -m repro.experiments.runner`` regenerates); the ratchet in
``test_accuracy.py`` then keeps every record from getting worse.
"""

from __future__ import annotations

import pytest

from repro.workloads.matrix import DEFAULT_THRESHOLDS
from tests.experiments.accuracy import at


def values(scales: list[dict], experiment: str, metric: str) -> list[float]:
    """One metric of one experiment, every configuration, both scales."""
    found = [v for sections in scales for v in at(sections, experiment, metric).values()]
    assert found, (experiment, metric)
    return found


class TestFig04:
    def test_saturation_point_near_design_value(self, scales):
        assert max(values(scales, "fig04", "sp_calibration_error")) < 0.05

    def test_input_linear_then_flat(self, scales):
        # Linear: input tracks source below SP.  Flat: pinned near 11M above.
        assert max(values(scales, "fig04", "linear_error")) < 0.05
        assert max(values(scales, "fig04", "plateau_error")) < 0.05

    def test_output_is_alpha_times_input(self, scales):
        assert max(values(scales, "fig04", "alpha_error")) < 0.01


class TestFig05:
    def test_ratio_within_paper_band_width(self, scales):
        # Paper: 7.63..7.64.  Same centre (7.635), comparably tight.
        assert max(values(scales, "fig05", "ratio_deviation")) < 0.035
        assert max(values(scales, "fig05", "ratio_spread")) < 0.05


class TestFig06:
    def test_bimodal_backpressure(self, scales):
        assert max(values(scales, "fig06", "bp_below_sp_ms")) < 100.0
        assert min(values(scales, "fig06", "bp_above_sp_ms")) > 40_000.0


class TestFig07:
    def test_component_sp_is_p_times_instance_sp(self, scales):
        assert max(values(scales, "fig07", "sp_calibration_error")) < 0.07

    def test_eq9_predictions_scale_by_gamma(self, quick_run):
        fig07 = quick_run["fig07"]
        p2, p4 = fig07["predictions"][2], fig07["predictions"][4]
        assert p2["input_inflection_tpm"] == pytest.approx(
            fig07["component_sp_tpm"] * 2 / 3, rel=1e-9
        )
        assert p4["output_st_tpm"] == pytest.approx(
            2 * p2["output_st_tpm"], rel=1e-9
        )

    def test_io_ratio_consistent_with_fig05(self, scales):
        assert max(values(scales, "fig07", "alpha_error")) < 0.01


class TestFig08:
    def test_st_errors_in_paper_band(self, scales):
        # Paper: 2.9% (p=2) and 2.5% (p=4).  The simulator is cleaner
        # than a shared production cluster, so <= 5% is the bound.
        assert max(values(scales, "fig08", "st_error")) < 0.05


class TestFig09:
    def test_counter_alpha_is_one(self, scales):
        assert max(values(scales, "fig09", "slope_error")) < 0.03

    def test_counter_sp_near_design_value(self, scales):
        # Counter p=3: 3 x 70M = 210M words/minute, within 190..230M.
        assert max(values(scales, "fig09", "sp_calibration_error")) < 20 / 210

    def test_p4_prediction_scales(self, quick_run):
        fig09 = quick_run["fig09"]
        assert fig09["prediction_p4"]["input_sp_tpm"] == pytest.approx(
            fig09["p3_input_sp_tpm"] * 4 / 3, rel=1e-9
        )


class TestFig10:
    def test_chained_prediction_error_low(self, scales):
        # Paper: 2.8%.
        assert max(values(scales, "fig10", "st_error")) < 0.05

    def test_prediction_plateau_matches_splitter_bound(self, scales):
        # Splitter p=2 is the bottleneck: ST = 2 x 11M x 7.635.
        assert max(values(scales, "fig10", "predicted_st_calibration_error")) < 0.08


class TestFig11And12:
    def test_cpu_psi_positive_and_base_small(self, quick_run, scales):
        model = quick_run["fig11"]["cpu_model"]
        assert model.psi > 0
        assert model.base_cores < 0.2
        # CPU is linear in input: the regression explains the data.
        assert min(values(scales, "fig11", "cpu_fit_r2")) > 0.99

    def test_cpu_validation_errors_in_paper_band(self, scales):
        # Paper: 4.8% and 3.0%.
        assert max(values(scales, "fig12", "cpu_error")) < 0.06

    def test_saturated_cpu_scales_with_parallelism(self, scales):
        assert max(values(scales, "fig12", "cpu_scaling_error")) < 0.05


class TestAblations:
    def test_skew_breaks_uniform_scaling_not_share_aware(self, scales):
        for sections in scales:
            uniform = at(sections, "skew", "uniform_error")
            # Balanced keys: measured SP above 90% of the uniform model's.
            assert uniform["zipf=0.0"] < 1 / 0.9 - 1
            # Heavy skew: below 85% of it.
            assert uniform["zipf=1.4"] > 1 / 0.85 - 1
        assert max(values(scales, "skew", "share_aware_error")) < 0.05

    def test_dense_packing_makes_the_stream_manager_bind(self, scales):
        for sections in scales:
            error = at(sections, "stmgr", "sp_error")
            assert error["2 per container"] < 0.10
            assert error["7 per container"] > error["2 per container"]

    def test_backpressure_is_bimodal_at_heron_watermarks(self, scales):
        for sections in scales:
            bp = at(sections, "watermarks", "saturated_bp_ms")
            assert bp["scale=1.0"] > 45_000
            # Very deep queues dilute the metric.
            assert bp["scale=16.0"] < bp["scale=0.25"]


class TestModelQuality:
    def test_prophet_beats_a_summary_on_seasonal_traffic(self, scales):
        for sections in scales:
            smape = at(sections, "forecast", "smape")
            assert (
                smape["seasonal traffic, prophet-lite"]
                < smape["seasonal traffic, stats-summary"] / 2
            )
            assert smape["flat traffic, stats-summary"] < 0.10

    def test_per_instance_mode_attributes_growth_at_a_cost(self, scales):
        assert max(values(scales, "traffic-modes", "total_error")) < 0.10
        assert max(values(scales, "traffic-modes", "hot_instance_error")) < 0.10
        for sections in scales:
            fits = at(sections, "traffic-modes", "forecaster_fits")
            assert fits["per-instance"] > fits["aggregate"]

    def test_every_dry_run_verdict_matches_the_deployment(self, scales):
        assert set(values(scales, "risk", "verdict_correct")) == {1.0}

    def test_latency_model_tracks_the_saturated_queue(self, scales):
        assert max(values(scales, "latency", "latency_error")) < 0.15

    def test_model_guided_scaling_needs_fewer_deployments(self, scales):
        assert set(values(scales, "autoscaler", "converged")) == {1.0}
        for sections in scales:
            deployments = at(sections, "autoscaler", "deployments")
            assert deployments["model-guided"] < deployments["reactive"]

    def test_calibration_survives_faulted_windows(self, scales):
        for sections in scales:
            error = at(sections, "faults", "prediction_error")
            assert error["healthy"] < 0.05
            assert max(error.values()) < 0.35
            assert at(sections, "faults", "warned")["crash"] == 1.0

    def test_matrix_cells_inside_their_gates(self, scales):
        assert max(values(scales, "matrix", "failed_cells")) == 0
        for sections in scales:
            for metric in ("arrival_mape", "cpu_mape"):
                for fault, mape in at(sections, "matrix", f"worst_{metric}").items():
                    assert mape <= DEFAULT_THRESHOLDS[fault][metric], fault
