"""End-to-end integration: the paper's full tuning workflow, one test.

The loop the paper sets out to shorten is
``plan -> deploy -> stabilize -> analyze``; with Caladrius it becomes
``observe -> model -> dry-run -> deploy once``.  This module walks that
complete story across every tier of the library:

1. a topology runs on the simulated cluster, metrics flow to the store;
2. the tracker serves its plans; the graph layer inspects its structure;
3. the traffic model forecasts, the performance model dry-runs a scaling
   proposal through the REST API;
4. the chosen proposal is deployed: the tracker is handed the new plans;
5. a fresh simulation of the updated plan validates the prediction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import CaladriusApp, CaladriusClient, CaladriusServer
from repro.config import load_config
from repro.graph.topology_graph import path_count, source_sink_paths
from repro.heron.metrics import MetricNames
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.tracker import TopologyTracker
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.store import MetricsStore

M = 1e6
TARGET_TRAFFIC = 30 * M


@pytest.fixture(scope="module")
def workflow():
    """Steps 1-2: deploy, observe, register."""
    params = WordCountParams(splitter_parallelism=2, counter_parallelism=4)
    topology, packing, logic = build_word_count(params)
    store = MetricsStore()
    simulation = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=33)
    )
    for rate in np.arange(4 * M, 44 * M + 1, 8 * M):
        simulation.set_source_rate("sentence-spout", float(rate))
        simulation.run(2)
    tracker = TopologyTracker()
    tracker.register(topology, packing)
    config = load_config(
        {
            "traffic_models": ["stats-summary"],
            "performance_models": [
                "throughput-prediction",
                "backpressure-evaluation",
            ],
        }
    )
    app = CaladriusApp(config, tracker, store)
    server = CaladriusServer(app).start()
    client = CaladriusClient(server.host, server.port)
    yield params, topology, logic, store, tracker, client
    server.stop()
    app.shutdown()


class TestFullWorkflow:
    def test_step2_structure_visible_through_every_surface(self, workflow):
        _, topology, _, _, tracker, client = workflow
        # Graph layer and tracker agree on the structure.
        assert path_count(topology) == 8 * 2 * 4
        assert source_sink_paths(topology) == [
            ["sentence-spout", "splitter", "counter"]
        ]
        plan = client.logical_plan("word-count")
        assert plan["bolts"]["splitter"]["parallelism"] == 2

    def test_step3_dry_run_over_the_api(self, workflow):
        _, _, _, _, _, client = workflow
        current = client.performance(
            "word-count", source_rate=TARGET_TRAFFIC,
            model="backpressure-evaluation",
        )["results"][0]
        assert current["backpressure_risk"] == "high"
        proposal = client.performance(
            "word-count",
            source_rate=TARGET_TRAFFIC,
            parallelisms={"splitter": 4},
            model="backpressure-evaluation",
        )["results"][0]
        assert proposal["backpressure_risk"] == "low"

    def test_step4_deploy_the_chosen_proposal(self, workflow):
        params, _, _, _, tracker, _ = workflow
        scaled_params = WordCountParams(
            spout_parallelism=params.spout_parallelism,
            splitter_parallelism=4,
            counter_parallelism=params.counter_parallelism,
        )
        topology, packing, _ = build_word_count(scaled_params)
        tracker.update("word-count", topology, packing)
        assert tracker.get("word-count").topology.parallelism("splitter") == 4

    def test_step5_reality_matches_the_prediction(self, workflow):
        params, _, logic, _, tracker, _ = workflow
        record = tracker.get("word-count")
        scaled_params = WordCountParams(
            spout_parallelism=params.spout_parallelism,
            splitter_parallelism=record.topology.parallelism("splitter"),
            counter_parallelism=record.topology.parallelism("counter"),
        )
        topology, packing, scaled_logic = build_word_count(scaled_params)
        store = MetricsStore()
        check = HeronSimulation(
            topology, packing, scaled_logic, store, SimulationConfig(seed=34)
        )
        check.set_source_rate("sentence-spout", TARGET_TRAFFIC)
        check.run(4)
        bp = store.get(
            MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS,
            {"topology": "word-count"},
        )
        assert max(bp.values[1:]) < 1_000.0  # low risk confirmed
        output = store.aggregate(
            MetricNames.EXECUTE_COUNT, {"component": "counter"}
        )
        alpha = logic["splitter"].alphas["default"]
        assert output.values[-1] == pytest.approx(
            alpha * TARGET_TRAFFIC, rel=0.05
        )
