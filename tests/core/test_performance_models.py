"""Tests for topology calibration and the performance-model tier."""

from __future__ import annotations

import pytest

from repro.core.performance_models import (
    BackpressureEvaluationModel,
    ThroughputPredictionModel,
    calibrate_topology,
)
from repro.errors import ModelError

M = 1e6


class TestCalibrateTopology:
    def test_fits_every_bolt(self, deployed_wordcount):
        _, _, logic, store, tracker = deployed_wordcount
        tracked = tracker.get("word-count")
        model, fits = calibrate_topology(tracked, store)
        assert set(fits) == {"splitter", "counter"}
        true_alpha = logic["splitter"].alphas["default"]
        assert fits["splitter"].alpha == pytest.approx(true_alpha, rel=0.02)

    def test_recovers_splitter_saturation(self, deployed_wordcount):
        _, _, logic, store, tracker = deployed_wordcount
        tracked = tracker.get("word-count")
        model, fits = calibrate_topology(tracked, store)
        # Splitter p=2 saturates at 22M tuples/min.
        true_sp = logic["splitter"].capacity_tps * 60 * 2
        assert fits["splitter"].saturation_point == pytest.approx(
            true_sp, rel=0.10
        )

    def test_chained_model_predicts_output(self, deployed_wordcount):
        _, _, logic, store, tracker = deployed_wordcount
        tracked = tracker.get("word-count")
        model, _ = calibrate_topology(tracked, store)
        assert model.paths == (("sentence-spout", "splitter", "counter"),)
        alpha = logic["splitter"].alphas["default"]
        # Linear region.
        assert model.evaluate(10 * M).paths[0].output_rate == pytest.approx(
            alpha * 10 * M, rel=0.05
        )
        # Saturated region: 2 instances x 11M x alpha.
        assert model.evaluate(40 * M).paths[0].output_rate == pytest.approx(
            2 * 11 * M * alpha, rel=0.10
        )


class TestThroughputPredictionModel:
    def test_prediction_fields(self, deployed_wordcount):
        _, _, _, store, tracker = deployed_wordcount
        model = ThroughputPredictionModel(tracker, store)
        prediction = model.predict("word-count", source_rate=10 * M)
        assert prediction.topology == "word-count"
        assert prediction.source_rate == 10 * M
        assert prediction.backpressure_risk == "low"
        assert prediction.output_rate == pytest.approx(7.635 * 10 * M, rel=0.05)
        assert set(prediction.components) == {
            "sentence-spout",
            "splitter",
            "counter",
        }

    def test_high_risk_at_saturation(self, deployed_wordcount):
        _, _, _, store, tracker = deployed_wordcount
        model = ThroughputPredictionModel(tracker, store)
        prediction = model.predict("word-count", source_rate=30 * M)
        assert prediction.backpressure_risk == "high"
        assert prediction.bottleneck == "splitter"

    def test_dry_run_parallelism_change(self, deployed_wordcount):
        """The paper's headline use case: predict before deploying."""
        _, _, _, store, tracker = deployed_wordcount
        model = ThroughputPredictionModel(tracker, store)
        base = model.predict("word-count", source_rate=30 * M)
        scaled = model.predict(
            "word-count", source_rate=30 * M, parallelisms={"splitter": 4}
        )
        # Doubling the splitter doubles its saturation point (Eq. 9),
        # so 30M no longer saturates and the output rate grows.
        assert scaled.output_rate > base.output_rate * 1.3
        assert scaled.parallelisms["splitter"] == 4
        # The tracked topology itself is untouched (dry run).
        assert tracker.get("word-count").topology.parallelism("splitter") == 2

    def test_saturation_source_rate_scales_with_parallelism(
        self, deployed_wordcount
    ):
        _, _, _, store, tracker = deployed_wordcount
        model = ThroughputPredictionModel(tracker, store)
        base = model.predict("word-count", source_rate=10 * M)
        scaled = model.predict(
            "word-count", source_rate=10 * M, parallelisms={"splitter": 4}
        )
        ratio = scaled.saturation_source_rate / base.saturation_source_rate
        assert ratio == pytest.approx(2.0, rel=0.15)

    def test_requires_rate_or_traffic(self, deployed_wordcount):
        _, _, _, store, tracker = deployed_wordcount
        model = ThroughputPredictionModel(tracker, store)
        with pytest.raises(ModelError, match="either source_rate or traffic"):
            model.predict("word-count")

    def test_as_dict_json_friendly(self, deployed_wordcount):
        import json

        _, _, _, store, tracker = deployed_wordcount
        model = ThroughputPredictionModel(tracker, store)
        prediction = model.predict("word-count", source_rate=5 * M)
        assert json.dumps(prediction.as_dict())


class TestBackpressureEvaluationModel:
    def test_low_risk_far_below_saturation(self, deployed_wordcount):
        _, _, _, store, tracker = deployed_wordcount
        model = BackpressureEvaluationModel(tracker, store)
        prediction = model.predict("word-count", source_rate=5 * M)
        assert prediction.backpressure_risk == "low"
        assert prediction.paths[0]["headroom"] > 2.0

    def test_high_risk_and_bottleneck(self, deployed_wordcount):
        _, _, _, store, tracker = deployed_wordcount
        model = BackpressureEvaluationModel(tracker, store)
        prediction = model.predict("word-count", source_rate=25 * M)
        assert prediction.backpressure_risk == "high"
        assert prediction.bottleneck == "splitter"

    def test_preemptive_scaling_loop(self, deployed_wordcount):
        """Forecast peak -> high risk -> propose scale-out -> low risk."""
        _, _, _, store, tracker = deployed_wordcount
        model = BackpressureEvaluationModel(tracker, store)
        risky = model.predict("word-count", source_rate=25 * M)
        assert risky.backpressure_risk == "high"
        fixed = model.predict(
            "word-count",
            source_rate=25 * M,
            parallelisms={"splitter": 6},
        )
        assert fixed.backpressure_risk == "low"


class TestPredictionUncertainty:
    def test_stderr_reported_and_band_brackets_point(self, deployed_wordcount):
        _, _, _, store, tracker = deployed_wordcount
        model = ThroughputPredictionModel(tracker, store)
        prediction = model.predict("word-count", source_rate=10 * M)
        assert prediction.output_rate_stderr >= 0.0
        low, high = prediction.output_rate_interval
        assert low <= prediction.output_rate <= high

    def test_clean_simulation_gives_tight_bands(self, deployed_wordcount):
        _, _, _, store, tracker = deployed_wordcount
        model = ThroughputPredictionModel(tracker, store)
        prediction = model.predict("word-count", source_rate=10 * M)
        # The simulator's noise floor is ~1.5%; the chained band should
        # stay within a few percent of the point prediction.
        assert prediction.output_rate_stderr < 0.05 * prediction.output_rate

    def test_as_dict_includes_interval(self, deployed_wordcount):
        import json

        _, _, _, store, tracker = deployed_wordcount
        model = ThroughputPredictionModel(tracker, store)
        payload = model.predict("word-count", source_rate=10 * M).as_dict()
        assert "output_rate_interval" in payload
        assert json.dumps(payload)
