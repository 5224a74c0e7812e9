"""Tests for the golden-signal extensions and failure injection.

Covers the simulator features beyond the paper's throughput experiments:
the Errors signal (fail-count), the Latency signal (queue-latency-ms),
memory accounting, per-instance degradation (the paper's "failed
resource" backpressure cause) and metric-clock offsets for redeploys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MetricsError, SimulationError
from repro.heron.groupings import ShuffleGrouping
from repro.heron.metrics import MetricNames
from repro.heron.packing import RoundRobinPacking
from repro.heron.simulation import (
    ComponentLogic,
    HeronSimulation,
    SimulationConfig,
    SpoutLogic,
)
from repro.heron.topology import TopologyBuilder
from repro.timeseries.store import MetricsStore


def build(
    worker_logic: ComponentLogic,
    parallelism: int = 2,
    config: SimulationConfig | None = None,
):
    builder = TopologyBuilder("ext")
    builder.add_spout("spout", 2)
    builder.add_bolt("worker", parallelism)
    builder.connect("spout", "worker", ShuffleGrouping())
    topology = builder.build()
    packing = RoundRobinPacking().pack(topology, 2)
    store = MetricsStore()
    sim = HeronSimulation(
        topology,
        packing,
        {"spout": SpoutLogic(), "worker": worker_logic},
        store,
        config or SimulationConfig(seed=5),
    )
    return sim, store


def small_watermarks(seed: int = 5) -> SimulationConfig:
    """Watermarks scaled down so queue dynamics fit short tests."""
    return SimulationConfig(
        seed=seed, high_watermark_bytes=12e6, low_watermark_bytes=6e6
    )


class TestErrorsSignal:
    def test_failed_tuples_counted_and_not_emitted(self):
        builder = TopologyBuilder("err")
        builder.add_spout("spout", 1)
        builder.add_bolt("flaky", 1)
        builder.add_bolt("sink", 1)
        builder.connect("spout", "flaky", ShuffleGrouping())
        builder.connect("flaky", "sink", ShuffleGrouping())
        topology = builder.build()
        packing = RoundRobinPacking().pack(topology, 1)
        store = MetricsStore()
        sim = HeronSimulation(
            topology,
            packing,
            {
                "spout": SpoutLogic(),
                "flaky": ComponentLogic(
                    capacity_tps=10_000.0,
                    alphas={"default": 1.0},
                    failure_rate=0.10,
                    capacity_noise=0.0,
                    alpha_noise=0.0,
                ),
                "sink": ComponentLogic(capacity_tps=1e6),
            },
            store,
            SimulationConfig(seed=1),
        )
        sim.set_source_rate("spout", 300_000.0)
        sim.run(2)
        processed = store.aggregate(
            MetricNames.EXECUTE_COUNT, {"component": "flaky"}
        ).values[-1]
        failed = store.aggregate(
            MetricNames.FAIL_COUNT, {"component": "flaky"}
        ).values[-1]
        emitted = store.aggregate(
            MetricNames.EMIT_COUNT, {"component": "flaky"}
        ).values[-1]
        assert failed == pytest.approx(0.10 * processed, rel=1e-9)
        assert emitted == pytest.approx(0.90 * processed, rel=1e-9)

    def test_default_failure_rate_is_zero(self):
        sim, store = build(ComponentLogic(capacity_tps=10_000.0))
        sim.set_source_rate("spout", 300_000.0)
        sim.run(1)
        failed = store.aggregate(
            MetricNames.FAIL_COUNT, {"component": "worker"}
        )
        assert np.all(failed.values == 0.0)

    def test_failure_rate_validation(self):
        with pytest.raises(SimulationError):
            ComponentLogic(capacity_tps=1.0, failure_rate=1.0)
        with pytest.raises(SimulationError):
            ComponentLogic(capacity_tps=1.0, failure_rate=-0.1)


class TestLatencySignal:
    def test_latency_negligible_below_saturation(self):
        sim, store = build(
            ComponentLogic(capacity_tps=10_000.0, capacity_noise=0.0)
        )
        sim.set_source_rate("spout", 300_000.0)  # 25% load
        sim.run(2)
        latency = store.aggregate(
            MetricNames.QUEUE_LATENCY_MS, {"component": "worker"}
        )
        assert latency.values[-1] < 100.0

    def test_latency_grows_into_saturation(self):
        sim, store = build(
            ComponentLogic(capacity_tps=10_000.0, capacity_noise=0.0),
            parallelism=1,
        )
        sim.set_source_rate("spout", 1_200_000.0)  # 2x the one instance
        sim.run(3)
        latency = store.aggregate(
            MetricNames.QUEUE_LATENCY_MS, {"component": "worker"}
        )
        # Pinned at the high watermark: ~100MB/64B tuples at 10k tps is
        # minutes of queueing delay.
        assert latency.values[-1] > 10_000.0


class TestMemorySignal:
    def test_memory_includes_queue_bytes(self):
        logic = ComponentLogic(
            capacity_tps=10_000.0, base_memory_bytes=100e6, capacity_noise=0.0
        )
        sim, store = build(logic)
        sim.set_source_rate("spout", 2_400_000.0)  # 2x capacity: queues fill
        sim.run(3)
        memory = store.aggregate(
            MetricNames.MEMORY_BYTES, {"component": "worker"}
        )
        # Two instances: 2x base plus ~2x high-watermark of queue.
        assert memory.values[-1] > 2 * 100e6 + 100e6

    def test_state_growth_saturates_at_cap(self):
        logic = ComponentLogic(
            capacity_tps=50_000.0,
            base_memory_bytes=0.0,
            state_bytes_per_processed=10.0,
            state_memory_cap_bytes=1e6,
            capacity_noise=0.0,
        )
        sim, store = build(logic, parallelism=1)
        sim.set_source_rate("spout", 600_000.0)
        sim.run(3)
        memory = store.aggregate(
            MetricNames.MEMORY_BYTES, {"component": "worker"}
        )
        assert memory.values[-1] == pytest.approx(1e6, rel=0.01)


class TestFailureInjection:
    def test_degraded_instance_backpressures_early(self):
        sim, store = build(
            ComponentLogic(capacity_tps=10_000.0, capacity_noise=0.0),
            config=small_watermarks(),
        )
        # 16k tps over 2 instances: healthy cluster copes (8k < 10k).
        sim.set_source_rate("spout", 960_000.0)
        sim.run(2)
        assert not sim.backpressure_active()
        # Halve instance 0's capacity: its 8k share now exceeds 5k.
        sim.set_instance_capacity_factor("worker", 0, 0.5)
        sim.run(4)
        assert sim.backpressure_active()
        queues = sim.queue_tuples("worker")
        assert queues[0] > queues[1]

    def test_restore_clears_backpressure(self):
        sim, _ = build(
            ComponentLogic(capacity_tps=10_000.0, capacity_noise=0.0),
            config=small_watermarks(),
        )
        sim.set_source_rate("spout", 960_000.0)
        sim.set_instance_capacity_factor("worker", 0, 0.4)
        sim.run(4)
        assert sim.backpressure_active()
        sim.set_instance_capacity_factor("worker", 0, 1.0)
        sim.run(8)
        assert not sim.backpressure_active()
        assert list(sim.instance_capacity_factors("worker")) == [1.0, 1.0]

    def test_dead_instance_stalls_the_topology(self):
        """A dead instance holds backpressure forever: the whole
        topology stalls — exactly why Heron treats backpressure as a
        failure symptom rather than only an overload signal."""
        sim, store = build(
            ComponentLogic(capacity_tps=10_000.0, capacity_noise=0.0),
            config=small_watermarks(),
        )
        sim.set_source_rate("spout", 960_000.0)  # healthy load
        sim.set_instance_capacity_factor("worker", 0, 0.0)
        sim.run(4)
        assert sim.backpressure_active()
        processed = store.aggregate(
            MetricNames.EXECUTE_COUNT, {"component": "worker"}
        ).values
        # After the dead queue pins at its watermark, spouts stay
        # suppressed and throughput collapses far below the offered load.
        assert processed[-1] < 0.2 * 960_000.0

    def test_validation(self):
        sim, _ = build(ComponentLogic(capacity_tps=10_000.0))
        with pytest.raises(SimulationError, match="not a bolt"):
            sim.set_instance_capacity_factor("spout", 0, 0.5)
        with pytest.raises(SimulationError, match="no instance"):
            sim.set_instance_capacity_factor("worker", 9, 0.5)
        with pytest.raises(SimulationError, match="non-negative"):
            sim.set_instance_capacity_factor("worker", 0, -1.0)


class TestClockOffset:
    def test_start_at_seconds_offsets_metrics(self):
        builder = TopologyBuilder("offset")
        builder.add_spout("spout", 1)
        builder.add_bolt("worker", 1)
        builder.connect("spout", "worker", ShuffleGrouping())
        topology = builder.build()
        packing = RoundRobinPacking().pack(topology, 1)
        store = MetricsStore()
        sim = HeronSimulation(
            topology,
            packing,
            {"spout": SpoutLogic(), "worker": ComponentLogic(capacity_tps=1e4)},
            store,
            SimulationConfig(seed=1),
            start_at_seconds=300,
        )
        sim.set_source_rate("spout", 60_000.0)
        sim.run(2)
        series = store.aggregate(
            MetricNames.EXECUTE_COUNT, {"component": "worker"}
        )
        assert series.start == 300
        assert sim.now == pytest.approx(420.0)

    def test_offset_must_be_minute_aligned(self):
        builder = TopologyBuilder("offset")
        builder.add_spout("spout", 1)
        builder.add_bolt("worker", 1)
        builder.connect("spout", "worker", ShuffleGrouping())
        topology = builder.build()
        packing = RoundRobinPacking().pack(topology, 1)
        logic = {"spout": SpoutLogic(), "worker": ComponentLogic(capacity_tps=1e4)}
        for start in (90, -60):
            with pytest.raises(MetricsError, match="non-negative multiple of 60"):
                HeronSimulation(
                    topology, packing, logic, MetricsStore(),
                    start_at_seconds=start,
                )
