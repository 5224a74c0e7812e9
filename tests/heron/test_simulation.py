"""Behavioural tests for the fluid Heron simulator.

These assert the properties the paper's models depend on: linear
input/output relation below saturation, input pinned at capacity above
it, bimodal backpressure time, grouping-driven traffic splits and
CPU linear in input rate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.heron.groupings import FieldsGrouping, KeyDistribution, ShuffleGrouping
from repro.heron.metrics import MetricNames
from repro.heron.packing import RoundRobinPacking
from repro.heron.simulation import (
    ComponentLogic,
    HeronSimulation,
    SimulationConfig,
    SpoutLogic,
)
from repro.heron.topology import TopologyBuilder
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.store import MetricsStore

M = 1e6


def simple_topology(bolt_parallelism=1, grouping=None):
    builder = TopologyBuilder("simple")
    builder.add_spout("spout", 2)
    builder.add_bolt("worker", bolt_parallelism)
    builder.connect("spout", "worker", grouping or ShuffleGrouping())
    return builder.build()


def simple_sim(
    bolt_parallelism=1,
    capacity_tps=10_000.0,
    grouping=None,
    config=None,
    alphas=None,
):
    topology = simple_topology(bolt_parallelism, grouping)
    packing = RoundRobinPacking().pack(topology, 2)
    logic = {
        "spout": SpoutLogic(alphas={"default": 1.0}),
        "worker": ComponentLogic(
            capacity_tps=capacity_tps,
            alphas=alphas if alphas is not None else {},
            capacity_noise=0.0,
            alpha_noise=0.0,
        ),
    }
    store = MetricsStore()
    sim = HeronSimulation(
        topology, packing, logic, store, config or SimulationConfig(seed=1)
    )
    return sim, store


class TestValidation:
    def test_missing_logic_rejected(self):
        topology = simple_topology()
        packing = RoundRobinPacking().pack(topology, 1)
        with pytest.raises(SimulationError, match="no logic"):
            HeronSimulation(
                topology, packing, {"spout": SpoutLogic()}, MetricsStore()
            )

    def test_wrong_logic_type_rejected(self):
        topology = simple_topology()
        packing = RoundRobinPacking().pack(topology, 1)
        logic = {
            "spout": ComponentLogic(capacity_tps=1.0),
            "worker": ComponentLogic(capacity_tps=1.0),
        }
        with pytest.raises(SimulationError, match="SpoutLogic"):
            HeronSimulation(topology, packing, logic, MetricsStore())

    def test_missing_alpha_for_declared_stream(self):
        topology = simple_topology()
        packing = RoundRobinPacking().pack(topology, 1)
        logic = {
            "spout": SpoutLogic(alphas={}),
            "worker": ComponentLogic(capacity_tps=1.0),
        }
        with pytest.raises(SimulationError, match="without alphas"):
            HeronSimulation(topology, packing, logic, MetricsStore())

    def test_packing_mismatch_rejected(self):
        topology = simple_topology()
        other = simple_topology(bolt_parallelism=5)
        packing = RoundRobinPacking().pack(other, 1)
        logic = {"spout": SpoutLogic(), "worker": ComponentLogic(capacity_tps=1.0)}
        with pytest.raises(SimulationError, match="does not match"):
            HeronSimulation(topology, packing, logic, MetricsStore())

    def test_config_validation(self):
        with pytest.raises(SimulationError):
            SimulationConfig(high_watermark_bytes=10, low_watermark_bytes=20)

    def test_set_source_rate_validation(self):
        sim, _ = simple_sim()
        with pytest.raises(SimulationError, match="not a spout"):
            sim.set_source_rate("worker", 100.0)
        with pytest.raises(SimulationError, match="non-negative"):
            sim.set_source_rate("spout", -1.0)

    def test_run_length_must_match_tick(self):
        sim, _ = simple_sim()
        with pytest.raises(SimulationError, match="multiple of the tick"):
            sim.run_seconds(0.25)


class TestLinearRegime:
    def test_below_capacity_passthrough(self):
        sim, store = simple_sim(capacity_tps=10_000.0)
        sim.set_source_rate("spout", 300_000.0)  # 5,000 tps < capacity
        sim.run(2)
        processed = store.aggregate(
            MetricNames.EXECUTE_COUNT, {"component": "worker"}
        )
        assert processed.values[-1] == pytest.approx(300_000.0, rel=0.01)
        assert not sim.backpressure_active()

    def test_output_follows_alpha(self):
        sim, store = simple_sim(
            capacity_tps=10_000.0, alphas=None
        )
        topology = simple_topology()
        packing = RoundRobinPacking().pack(topology, 2)
        logic = {
            "spout": SpoutLogic(),
            "worker": ComponentLogic(
                capacity_tps=10_000.0,
                alphas={},
                capacity_noise=0.0,
            ),
        }
        # Worker is a sink here; alpha behaviour is covered in the word
        # count test below where the splitter has an output stream.
        params = WordCountParams(splitter_parallelism=1, counter_parallelism=2)
        topo, pack, wc_logic = build_word_count(params)
        wc_store = MetricsStore()
        wc_sim = HeronSimulation(
            topo, pack, wc_logic, wc_store, SimulationConfig(seed=5)
        )
        wc_sim.set_source_rate("sentence-spout", 6 * M)
        wc_sim.run(2)
        executed = wc_store.aggregate(
            MetricNames.EXECUTE_COUNT, {"component": "splitter"}
        )
        emitted = wc_store.aggregate(
            MetricNames.EMIT_COUNT, {"component": "splitter"}
        )
        ratio = emitted.values[-1] / executed.values[-1]
        assert ratio == pytest.approx(7.635, rel=0.005)

    def test_no_backpressure_below_saturation(self):
        sim, store = simple_sim(capacity_tps=10_000.0)
        sim.set_source_rate("spout", 400_000.0)
        sim.run(2)
        bp = store.aggregate(
            MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS, {"topology": "simple"}
        )
        assert np.all(bp.values == 0.0)


class TestSaturation:
    def test_input_pins_at_capacity(self):
        sim, store = simple_sim(capacity_tps=10_000.0)
        sim.set_source_rate("spout", 1_200_000.0)  # 20,000 tps, 2x capacity
        sim.run(4)
        processed = store.aggregate(
            MetricNames.EXECUTE_COUNT, {"component": "worker"}
        )
        steady = processed.values[1:]
        assert np.all(steady <= 10_000.0 * 60 * 1.05)
        assert steady[-1] >= 10_000.0 * 60 * 0.9

    def test_backpressure_time_is_bimodal(self):
        sim, store = simple_sim(capacity_tps=10_000.0)
        sim.set_source_rate("spout", 1_200_000.0)
        sim.run(4)
        bp = store.aggregate(
            MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS, {"topology": "simple"}
        )
        # After the warmup minute, backpressure time is close to 60s/min.
        assert bp.values[-1] > 40_000.0

    def test_spout_suppressed_and_backlog_grows(self):
        sim, _ = simple_sim(capacity_tps=10_000.0)
        sim.set_source_rate("spout", 1_800_000.0)  # 3x capacity
        sim.run(3)
        backlog = sim.spout_backlog("spout")
        assert backlog.sum() > 0
        assert sim.backpressure_active()
        assert sim.backpressure_components() == ["worker"]

    def test_queue_pinned_near_high_watermark(self):
        config = SimulationConfig(seed=2)
        sim, _ = simple_sim(capacity_tps=10_000.0, config=config)
        sim.set_source_rate("spout", 1_200_000.0)
        sim.run(3)
        pending = sim.queue_tuples("worker") * 64.0  # default tuple bytes
        assert pending.max() <= config.high_watermark_bytes * 1.01

    def test_recovery_after_load_drops(self):
        sim, store = simple_sim(capacity_tps=10_000.0)
        sim.set_source_rate("spout", 1_200_000.0)
        sim.run(3)
        assert sim.backpressure_active()
        # Stop the source: the accumulated backlog and the pinned queue
        # (~100 MB = 1.56 M tuples at 10 k tuples/s) drain in ~3 minutes.
        sim.set_source_rate("spout", 0.0)
        sim.run(8)
        assert not sim.backpressure_active()
        bp = store.aggregate(
            MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS, {"topology": "simple"}
        )
        assert bp.values[-1] == 0.0


class TestGroupings:
    def test_shuffle_splits_evenly(self):
        sim, store = simple_sim(bolt_parallelism=4, capacity_tps=100_000.0)
        sim.set_source_rate("spout", 2_400_000.0)
        sim.run(2)
        per_instance = [
            store.aggregate(
                MetricNames.RECEIVED_COUNT,
                {"component": "worker", "instance": f"worker_{i}"},
            ).values[-1]
            for i in range(4)
        ]
        assert np.allclose(per_instance, np.mean(per_instance), rtol=0.02)

    def test_fields_grouping_splits_by_shares(self):
        kd = KeyDistribution(("hot", "warm", "cold"), (0.6, 0.3, 0.1))
        grouping = FieldsGrouping(["k"], kd)
        shares = grouping.shares(2)
        sim, store = simple_sim(
            bolt_parallelism=2, capacity_tps=1e9, grouping=grouping
        )
        sim.set_source_rate("spout", 6_000_000.0)
        sim.run(2)
        received = np.array(
            [
                store.aggregate(
                    MetricNames.RECEIVED_COUNT,
                    {"component": "worker", "instance": f"worker_{i}"},
                ).values[-1]
                for i in range(2)
            ]
        )
        observed_shares = received / received.sum()
        assert np.allclose(observed_shares, shares, atol=0.02)

    def test_skewed_fields_saturates_hot_instance_first(self):
        kd = KeyDistribution(("hot", "cold"), (0.9, 0.1))
        grouping = FieldsGrouping(["k"], kd)
        shares = grouping.shares(2)
        hot = int(np.argmax(shares))
        sim, _ = simple_sim(
            bolt_parallelism=2, capacity_tps=10_000.0, grouping=grouping
        )
        # Total rate saturates the hot instance but not the cold one.
        sim.set_source_rate("spout", 900_000.0)  # 15k tps; hot gets 13.5k
        sim.run(3)
        queues = sim.queue_tuples("worker")
        assert queues[hot] > queues[1 - hot]


class TestCpu:
    def test_cpu_linear_in_input(self):
        sim1, store1 = simple_sim(capacity_tps=100_000.0)
        sim1.set_source_rate("spout", 1_200_000.0)  # 20% utilisation
        sim1.run(2)
        sim2, store2 = simple_sim(capacity_tps=100_000.0)
        sim2.set_source_rate("spout", 2_400_000.0)  # 40% utilisation
        sim2.run(2)
        cpu1 = store1.aggregate(
            MetricNames.CPU_LOAD, {"component": "worker"}
        ).values[-1]
        cpu2 = store2.aggregate(
            MetricNames.CPU_LOAD, {"component": "worker"}
        ).values[-1]
        assert cpu2 == pytest.approx(2 * cpu1, rel=0.05)

    def test_cpu_saturates_with_throughput(self):
        sim, store = simple_sim(capacity_tps=10_000.0)
        sim.set_source_rate("spout", 2_400_000.0)  # 4x capacity
        sim.run(3)
        cpu = store.aggregate(
            MetricNames.CPU_LOAD, {"component": "worker"}
        ).values
        logic = ComponentLogic(capacity_tps=10_000.0)
        ceiling = logic.worker_cores + logic.gateway_cores_per_tuple * 3e4
        assert cpu[-1] <= ceiling * 1.2


class TestStreamManagerLimits:
    def test_finite_stmgr_throttles_throughput(self):
        config = SimulationConfig(seed=3, stmgr_capacity_tps=4_000.0)
        sim, store = simple_sim(capacity_tps=10_000.0, config=config)
        sim.set_source_rate("spout", 600_000.0)  # 10k tps > stmgr capacity
        sim.run(3)
        processed = store.aggregate(
            MetricNames.EXECUTE_COUNT, {"component": "worker"}
        ).values[-1]
        # Two containers, each stream manager caps at 4k tps.
        assert processed <= 2 * 4_000.0 * 60 * 1.1

    def test_infinite_stmgr_is_transparent(self):
        sim, store = simple_sim(capacity_tps=10_000.0)
        sim.set_source_rate("spout", 480_000.0)
        sim.run(2)
        processed = store.aggregate(
            MetricNames.EXECUTE_COUNT, {"component": "worker"}
        ).values[-1]
        assert processed == pytest.approx(480_000.0, rel=0.01)


class TestDeterminism:
    def test_same_seed_same_metrics(self):
        a_sim, a_store = simple_sim(config=SimulationConfig(seed=9))
        b_sim, b_store = simple_sim(config=SimulationConfig(seed=9))
        for sim in (a_sim, b_sim):
            sim.set_source_rate("spout", 500_000.0)
            sim.run(2)
        a = a_store.aggregate(MetricNames.EXECUTE_COUNT, {"component": "worker"})
        b = b_store.aggregate(MetricNames.EXECUTE_COUNT, {"component": "worker"})
        assert a == b

    def test_different_seed_different_noise(self):
        a_sim, a_store = simple_sim(config=SimulationConfig(seed=1))
        b_sim, b_store = simple_sim(config=SimulationConfig(seed=2))
        for sim in (a_sim, b_sim):
            sim.set_source_rate("spout", 500_000.0)
            sim.run(2)
        a = a_store.aggregate(MetricNames.EXECUTE_COUNT, {"component": "spout"})
        b = b_store.aggregate(MetricNames.EXECUTE_COUNT, {"component": "spout"})
        assert not np.array_equal(a.values, b.values)


class TestConservation:
    def test_tuples_not_created_or_lost(self):
        sim, store = simple_sim(capacity_tps=10_000.0)
        sim.set_source_rate("spout", 900_000.0)  # saturating
        sim.run(3)
        fetched = store.aggregate(
            MetricNames.EXECUTE_COUNT, {"component": "spout"}
        ).sum()
        received = store.aggregate(
            MetricNames.RECEIVED_COUNT, {"component": "worker"}
        ).sum()
        processed = store.aggregate(
            MetricNames.EXECUTE_COUNT, {"component": "worker"}
        ).sum()
        queued = sim.queue_tuples("worker").sum()
        assert received == pytest.approx(fetched, rel=1e-9)
        assert processed + queued == pytest.approx(received, rel=1e-6)
