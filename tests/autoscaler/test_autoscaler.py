"""Tests for the reactive baseline and the model-guided scaler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autoscaler import (
    ModelGuidedScaler,
    ReactiveScaler,
    ScalingRound,
    ScalingTrace,
    SimulatedCluster,
)
from repro.errors import ModelError
from repro.heron.simulation import SimulationConfig
from repro.heron.wordcount import WordCountParams

M = 1e6
DEMAND = 40 * M
ALPHA = 7.635
SLO = 0.95 * ALPHA * DEMAND  # keep up with the words the demand implies


def undersized_cluster(seed: int) -> SimulatedCluster:
    """Splitter 2 / Counter 2 under a 40M demand, with a traffic ramp."""
    cluster = SimulatedCluster(
        word_count_params=WordCountParams(
            splitter_parallelism=2, counter_parallelism=2
        ),
        config=SimulationConfig(seed=seed),
    )
    for rate in np.arange(8 * M, DEMAND + 1, 8 * M):
        cluster.set_source_rate("sentence-spout", float(rate))
        cluster.run(2)
    return cluster


@pytest.fixture(scope="module")
def reactive_trace() -> ScalingTrace:
    cluster = undersized_cluster(seed=1)
    return ReactiveScaler(cluster, slo_output_tpm=SLO, observe_minutes=3).run()


@pytest.fixture(scope="module")
def guided_trace() -> ScalingTrace:
    cluster = undersized_cluster(seed=2)
    scaler = ModelGuidedScaler(cluster, slo_output_tpm=SLO, observe_minutes=3)
    return scaler.run(source_tpm=DEMAND)


class TestCluster:
    def test_redeploy_keeps_metric_history_continuous(self):
        cluster = SimulatedCluster(
            word_count_params=WordCountParams(
                splitter_parallelism=2, counter_parallelism=2
            )
        )
        cluster.set_source_rate("sentence-spout", 10 * M)
        cluster.run(2)
        first_end = cluster.now
        cluster.deploy({"splitter": 3})
        assert cluster.now == first_end
        cluster.run(2)
        series = cluster.store.aggregate(
            "execute-count",
            {"topology": "word-count", "component": "splitter"},
        )
        # Four continuous minutes across the redeployment.
        assert list(series.timestamps) == [0, 60, 120, 180]

    def test_redeploy_preserves_source_rate(self):
        cluster = SimulatedCluster(
            word_count_params=WordCountParams(
                splitter_parallelism=2, counter_parallelism=2
            )
        )
        cluster.set_source_rate("sentence-spout", 10 * M)
        cluster.deploy({"splitter": 3})
        cluster.run(2)
        out = cluster.recent_output_tpm(1)
        assert out == pytest.approx(ALPHA * 10 * M, rel=0.05)

    def test_tracker_follows_deployments(self):
        cluster = SimulatedCluster(
            word_count_params=WordCountParams(
                splitter_parallelism=2, counter_parallelism=2
            )
        )
        revision = cluster.tracker.get("word-count").revision
        cluster.deploy({"splitter": 4})
        record = cluster.tracker.get("word-count")
        assert record.revision > revision
        assert record.topology.parallelism("splitter") == 4

    def test_observation_windows(self):
        cluster = SimulatedCluster(
            word_count_params=WordCountParams(
                splitter_parallelism=1, counter_parallelism=2
            )
        )
        cluster.set_source_rate("sentence-spout", 14 * M)  # saturating
        cluster.run(3)
        assert cluster.recent_backpressure_ms(2) > 10_000
        per_component = cluster.component_backpressure_ms(2)
        assert per_component["splitter"] > per_component["counter"]


class TestReactiveScaler:
    def test_converges_to_slo(self, reactive_trace):
        assert reactive_trace.converged

    def test_takes_multiple_rounds(self, reactive_trace):
        """The paper's criticism: several rounds, several deployments."""
        assert len(reactive_trace.rounds) >= 4
        assert reactive_trace.deployments >= 3

    def test_scales_the_symptomatic_component(self, reactive_trace):
        first = reactive_trace.rounds[0]
        # The splitter throttles first in the undersized deployment.
        assert "splitter" in first.action

    def test_final_configuration_sized_for_demand(self, reactive_trace):
        final = reactive_trace.rounds[-1].parallelisms
        assert final["splitter"] >= 4  # ceil(40M / 11M)
        assert final["counter"] >= 5  # ceil(305M / 70M)

    def test_parameter_validation(self):
        cluster = SimulatedCluster(
            word_count_params=WordCountParams(
                splitter_parallelism=1, counter_parallelism=1
            )
        )
        with pytest.raises(ModelError):
            ReactiveScaler(cluster, slo_output_tpm=0)
        with pytest.raises(ModelError):
            ReactiveScaler(cluster, slo_output_tpm=1.0, observe_minutes=0)


class TestModelGuidedScaler:
    def test_converges_in_one_deployment(self, guided_trace):
        assert guided_trace.converged
        assert guided_trace.deployments == 1
        assert len(guided_trace.rounds) == 2

    def test_sizes_both_bottlenecks_at_once(self, guided_trace):
        final = guided_trace.rounds[-1].parallelisms
        assert final["splitter"] >= 4
        assert final["counter"] >= 5

    def test_noop_when_slo_already_met(self):
        cluster = SimulatedCluster(
            word_count_params=WordCountParams(
                splitter_parallelism=4, counter_parallelism=5
            ),
            config=SimulationConfig(seed=3),
        )
        cluster.set_source_rate("sentence-spout", 10 * M)
        cluster.run(2)
        scaler = ModelGuidedScaler(
            cluster, slo_output_tpm=0.9 * ALPHA * 10 * M, observe_minutes=3
        )
        trace = scaler.run(source_tpm=10 * M)
        assert trace.converged
        assert trace.deployments == 0
        assert "no scaling needed" in trace.rounds[0].action

    def test_sizes_after_a_scale_down(self):
        """The instances a scale-down removed stop reporting; inside the
        post-deployment window they are not instances that fail to
        report, so every minute of it is still complete."""
        cluster = SimulatedCluster(
            word_count_params=WordCountParams(
                splitter_parallelism=4, counter_parallelism=5
            ),
            config=SimulationConfig(seed=4),
        )
        cluster.set_source_rate("sentence-spout", 10 * M)
        cluster.run(4)
        cluster.deploy({"splitter": 2, "counter": 2})
        for rate in np.arange(8 * M, DEMAND + 1, 8 * M):
            cluster.set_source_rate("sentence-spout", float(rate))
            cluster.run(2)
        scaler = ModelGuidedScaler(cluster, slo_output_tpm=SLO, observe_minutes=3)
        proposal = scaler._size(DEMAND, cluster.deployed_at_seconds)
        assert proposal["splitter"] >= 4
        assert proposal["counter"] >= 5

    def test_parameter_validation(self):
        cluster = SimulatedCluster(
            word_count_params=WordCountParams(
                splitter_parallelism=1, counter_parallelism=1
            )
        )
        with pytest.raises(ModelError):
            ModelGuidedScaler(cluster, slo_output_tpm=-1)
        with pytest.raises(ModelError):
            ModelGuidedScaler(cluster, slo_output_tpm=1.0, headroom=0.5)
        scaler = ModelGuidedScaler(cluster, slo_output_tpm=1.0)
        with pytest.raises(ModelError):
            scaler.run(source_tpm=0)


class TestComparison:
    def test_guided_needs_fewer_deployments(self, reactive_trace, guided_trace):
        """The paper's headline: model-guided scaling collapses the
        plan->deploy->stabilize->analyze loop to one deployment."""
        assert guided_trace.deployments < reactive_trace.deployments
        assert len(guided_trace.rounds) < len(reactive_trace.rounds)

    def test_both_reach_the_same_slo(self, reactive_trace, guided_trace):
        assert reactive_trace.rounds[-1].output_tpm >= SLO
        assert guided_trace.rounds[-1].output_tpm >= SLO


class TestTraceTypes:
    def test_trace_summary(self):
        trace = ScalingTrace("s", 100.0)
        trace.rounds.append(
            ScalingRound(0, {"a": 1}, 50.0, 0.0, False, "scale")
        )
        trace.rounds.append(
            ScalingRound(1, {"a": 2}, 120.0, 0.0, True, "done")
        )
        assert trace.converged
        assert trace.deployments == 1
        assert trace.observe_minutes(3) == 6
        summary = trace.summary()
        assert summary["rounds"] == 2
        assert summary["final_parallelisms"] == {"a": 2}

    def test_empty_trace(self):
        trace = ScalingTrace("s", 100.0)
        assert not trace.converged
        assert trace.deployments == 0
