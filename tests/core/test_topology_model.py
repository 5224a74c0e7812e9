"""Tests for critical-path chaining and backpressure risk (Eq. 12-14)."""

from __future__ import annotations

import math

import pytest

from repro.core.component_model import ComponentModel
from repro.core.instance_model import InstanceModel
from repro.core.topology_model import BackpressureRisk, TopologyModel
from repro.errors import ModelError
from repro.heron.groupings import ShuffleGrouping
from repro.heron.topology import TopologyBuilder
from repro.heron.wordcount import WordCountParams, build_word_count

PATH = ("sentence-spout", "splitter", "counter")


def chained(model, source_rate=0.0):
    """Word Count's one path (one spout: its share is the whole rate)."""
    (path,) = model.evaluate(source_rate).paths
    assert path.path == PATH
    return path


def bottleneck(model):
    path = chained(model)
    return path.bottleneck, path.saturation_source_rate


def wordcount_model(splitter_p=2, counter_p=4):
    topology, _, _ = build_word_count(
        WordCountParams(
            splitter_parallelism=splitter_p, counter_parallelism=counter_p
        )
    )
    components = {
        "splitter": ComponentModel(
            "splitter", InstanceModel({"default": 7.63}, 11e6), splitter_p
        ),
        "counter": ComponentModel(
            "counter", InstanceModel({}, 70e6), counter_p
        ),
    }
    return TopologyModel(topology, components)


class TestConstruction:
    def test_missing_bolt_model_rejected(self):
        topology, _, _ = build_word_count()
        with pytest.raises(ModelError, match="no component model"):
            TopologyModel(topology, {})

    def test_parallelism_mismatch_rejected(self):
        topology, _, _ = build_word_count(
            WordCountParams(splitter_parallelism=2, counter_parallelism=2)
        )
        components = {
            "splitter": ComponentModel(
                "splitter", InstanceModel({"default": 7.63}, 11e6), 5
            ),
            "counter": ComponentModel("counter", InstanceModel({}, 70e6), 2),
        }
        with pytest.raises(ModelError, match="parallelism"):
            TopologyModel(topology, components)

    def test_spout_defaults_to_identity(self):
        model = wordcount_model()
        spout = model.component("sentence-spout")
        assert spout.output_rate(5e6) == pytest.approx(5e6)
        assert math.isinf(spout.saturation_point())


class TestEquation12:
    def test_linear_chain(self):
        model = wordcount_model()
        # 10M sentences -> 76.3M words -> counter processes all of them.
        assert chained(model, 10e6).output_rate == pytest.approx(76.3e6)

    def test_splitter_bottleneck(self):
        model = wordcount_model(splitter_p=2, counter_p=4)
        # Splitter saturates at 22M: output clips at 2 * 7.63 * 11M.
        out = chained(model, 40e6).output_rate
        assert out == pytest.approx(2 * 7.63 * 11e6)

    def test_counter_bottleneck(self):
        model = wordcount_model(splitter_p=8, counter_p=2)
        # Counter capacity 140M words < splitter output at high rates.
        out = chained(model, 40e6).output_rate
        assert out == pytest.approx(2 * 70e6)


class TestEquation13:
    def test_saturation_source_rate_splitter_bound(self):
        model = wordcount_model(splitter_p=2, counter_p=4)
        _, t0_prime = bottleneck(model)
        assert t0_prime == pytest.approx(22e6, rel=1e-6)

    def test_saturation_source_rate_counter_bound(self):
        model = wordcount_model(splitter_p=8, counter_p=2)
        _, t0_prime = bottleneck(model)
        # Counter saturates at 140M words = 140/7.63 M sentences.
        assert t0_prime == pytest.approx(140e6 / 7.63, rel=1e-6)

    def test_bottleneck_identification(self):
        model = wordcount_model(splitter_p=2, counter_p=4)
        name, rate = bottleneck(model)
        assert name == "splitter"
        assert rate == pytest.approx(22e6)
        model2 = wordcount_model(splitter_p=8, counter_p=2)
        name2, _ = bottleneck(model2)
        assert name2 == "counter"

    def test_unsaturable_path(self):
        topology, _, _ = build_word_count(
            WordCountParams(splitter_parallelism=1, counter_parallelism=1)
        )
        components = {
            "splitter": ComponentModel(
                "splitter", InstanceModel({"default": 7.63}), 1
            ),
            "counter": ComponentModel("counter", InstanceModel({}), 1),
        }
        model = TopologyModel(topology, components)
        name, rate = bottleneck(model)
        assert name is None
        assert math.isinf(rate)


class TestEquation14:
    def test_low_risk_far_from_saturation(self):
        model = wordcount_model()
        assessment = chained(model, 5e6).risk(5e6)
        assert assessment.risk is BackpressureRisk.LOW
        assert assessment.headroom > 4

    def test_high_risk_near_saturation(self):
        model = wordcount_model(splitter_p=2, counter_p=4)
        assessment = chained(model, 21e6).risk(21e6)
        assert assessment.risk is BackpressureRisk.HIGH
        assert assessment.bottleneck == "splitter"

    def test_threshold_is_tunable(self):
        model = wordcount_model(splitter_p=2, counter_p=4)
        at_80pct = chained(model, 17.6e6).risk(17.6e6, threshold=0.8)
        at_90pct = chained(model, 17.6e6).risk(17.6e6, threshold=0.9)
        assert at_80pct.risk is BackpressureRisk.HIGH
        assert at_90pct.risk is BackpressureRisk.LOW

    def test_validation(self):
        model = wordcount_model()
        with pytest.raises(ModelError):
            chained(model, 1e6).risk(1e6, threshold=0.0)
        with pytest.raises(ModelError):
            model.evaluate(-1.0)


class TestPropagate:
    def test_dag_propagation_matches_chain_on_linear_topology(self):
        model = wordcount_model()
        report = model.propagate({"sentence-spout": 10e6})
        assert report["counter"]["processed"] == chained(model, 10e6).output_rate
        assert not report["splitter"]["saturated"]

    def test_saturation_flags(self):
        model = wordcount_model(splitter_p=2, counter_p=4)
        report = model.propagate({"sentence-spout": 40e6})
        assert report["splitter"]["saturated"]

    def test_missing_spout_rate_rejected(self):
        model = wordcount_model()
        with pytest.raises(ModelError, match="missing source rate"):
            model.propagate({})

    def test_diamond_topology_propagation(self):
        builder = TopologyBuilder("diamond")
        builder.add_spout("s", 1)
        builder.add_bolt("left", 1)
        builder.add_bolt("right", 1)
        builder.add_bolt("sink", 1)
        builder.connect("s", "left", ShuffleGrouping())
        builder.connect("s", "right", ShuffleGrouping())
        builder.connect("left", "sink", ShuffleGrouping())
        builder.connect("right", "sink", ShuffleGrouping())
        topology = builder.build()
        components = {
            "left": ComponentModel("left", InstanceModel({"default": 2.0}), 1),
            "right": ComponentModel("right", InstanceModel({"default": 3.0}), 1),
            "sink": ComponentModel("sink", InstanceModel({}, 1e9), 1),
        }
        model = TopologyModel(topology, components)
        report = model.propagate({"s": 100.0})
        # The spout's single stream feeds both bolts in full.
        assert report["left"]["input"] == 100.0
        assert report["right"]["input"] == 100.0
        assert report["sink"]["input"] == pytest.approx(500.0)


class TestWithParallelism:
    def test_dry_run_rescaling(self):
        model = wordcount_model(splitter_p=2, counter_p=4)
        scaled = model.with_parallelism({"splitter": 4})
        # After scaling the splitter to 4, the counter (4 x 70M words =
        # 280M, i.e. 280/7.63 M sentences) becomes the binding stage.
        assert bottleneck(scaled)[1] == pytest.approx(
            280e6 / 7.63, rel=1e-6
        )
        # The original is untouched.
        assert bottleneck(model)[1] == pytest.approx(22e6)

    def test_scaling_moves_the_bottleneck(self):
        model = wordcount_model(splitter_p=2, counter_p=4)
        assert bottleneck(model)[0] == "splitter"
        scaled = model.with_parallelism({"splitter": 8})
        assert bottleneck(scaled)[0] == "counter"
