"""Per-minute metric semantics (the metrics-manager contract).

Pinned on a noise-free simulation whose minute is known in closed form:
``spout`` (1 instance) feeds ``splitter`` (2, shuffle), which emits two
tuples per input on stream ``words`` to ``counter`` (1).  At 12 000
tuples a minute the spout moves 200 a second, each splitter 100, and the
counter 400 — all exactly representable, so counters compare with ``==``.
"""

from __future__ import annotations

import pytest

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

RATE_TPM = 12_000.0
MINUTE_MS = 60_000.0


def pipe(counter=None):
    """The noise-free pipeline and its store (no source rate set yet)."""
    builder = TopologyBuilder("pipe")
    builder.add_spout("spout", 1)
    builder.add_bolt("splitter", 2)
    builder.add_bolt("counter", 1)
    builder.connect("spout", "splitter", ShuffleGrouping())
    builder.connect("splitter", "counter", ShuffleGrouping(), stream="words")
    topology = builder.build()
    quiet = {"capacity_noise": 0.0, "alpha_noise": 0.0}
    logic = {
        "spout": SpoutLogic(rate_noise=0.0),
        "splitter": ComponentLogic(
            capacity_tps=1000.0, alphas={"words": 2.0}, **quiet
        ),
        "counter": counter or ComponentLogic(capacity_tps=1000.0, **quiet),
    }
    store = MetricsStore()
    sim = HeronSimulation(
        topology,
        RoundRobinPacking().pack(topology, 2),
        logic,
        store,
        SimulationConfig(seed=1),
    )
    return sim, store


def pairs(store, metric, instance, **tags):
    component = instance.rsplit("_", 1)[0]
    return store.aggregate(
        metric,
        {"topology": "pipe", "component": component, "instance": instance, **tags},
    ).to_pairs()


#: (metric, instance) -> the value of one full minute at RATE_TPM.
MINUTE_COUNTERS = {
    (MetricNames.SOURCE_COUNT, "spout_0"): 12_000.0,
    (MetricNames.EXECUTE_COUNT, "spout_0"): 12_000.0,
    (MetricNames.EMIT_COUNT, "spout_0"): 12_000.0,
    (MetricNames.RECEIVED_COUNT, "splitter_0"): 6_000.0,
    (MetricNames.EXECUTE_COUNT, "splitter_1"): 6_000.0,
    (MetricNames.EMIT_COUNT, "splitter_1"): 12_000.0,
    (MetricNames.FAIL_COUNT, "splitter_0"): 0.0,
    (MetricNames.RECEIVED_COUNT, "counter_0"): 24_000.0,
    (MetricNames.EXECUTE_COUNT, "counter_0"): 24_000.0,
    (MetricNames.EMIT_COUNT, "counter_0"): 0.0,
}


class TestCounters:
    def test_counters_sum_over_the_minute(self):
        sim, store = pipe()
        sim.set_source_rate("spout", RATE_TPM)
        sim.run(1)
        for (metric, instance), total in MINUTE_COUNTERS.items():
            assert pairs(store, metric, instance) == [(0, total)], (
                metric, instance,
            )

    def test_stream_emit_counters_get_stream_tag(self):
        sim, store = pipe()
        sim.set_source_rate("spout", RATE_TPM)
        sim.run(1)
        name = MetricNames.STREAM_EMIT_COUNT
        assert pairs(store, name, "splitter_0", stream="words") == [
            (0, 12_000.0)
        ]
        assert pairs(store, name, "spout_0", stream="default") == [
            (0, 12_000.0)
        ]
        streams = [key.tag_dict().get("stream") for key in store.keys(name)]
        assert sorted(streams) == ["default", "words", "words"]
        # The sink declares no output stream, so reports none.
        assert not store.query(name, {"component": "counter"})


class TestGauges:
    def test_gauges_time_average(self):
        logic = SpoutLogic()
        # Busy: fetching 200 of the 2000 a second the fetch multiplier
        # allows, moving 200 in and 200 out through the gateway.
        busy = (
            logic.worker_cores * 200.0 / (logic.fetch_multiplier * 200.0)
            + logic.gateway_cores_per_tuple * 400.0
        )
        # Half a minute busy, half idle: the gauge is the mean.
        sim, store = pipe()
        sim.set_source_rate("spout", RATE_TPM)
        sim.run_seconds(30)
        sim.set_source_rate("spout", 0.0)
        sim.run_seconds(30)
        [(_, value)] = pairs(store, MetricNames.CPU_LOAD, "spout_0")
        assert value == pytest.approx(busy / 2.0, rel=1e-12)


def stuck_counter():
    """A counter whose queue hits the high watermark at 100 tuples."""
    return ComponentLogic(
        capacity_tps=1000.0, input_tuple_bytes=1e6,
        capacity_noise=0.0, alpha_noise=0.0,
    )


class TestBackpressure:
    def test_backpressure_capped_at_minute(self):
        name = MetricNames.BACKPRESSURE_TIME_MS
        whole_minutes = [(0, MINUTE_MS), (60, MINUTE_MS), (120, MINUTE_MS)]
        never = [(0, 0.0), (60, 0.0), (120, 0.0)]
        sim, store = pipe(counter=stuck_counter())
        sim.set_instance_capacity_factor("counter", 0, 0.0)
        sim.set_source_rate("spout", RATE_TPM)
        sim.run(3)
        # Raised within the first tick and never cleared: every minute is
        # a whole minute, never more.
        assert pairs(store, name, "counter_0") == whole_minutes
        reported = [
            value
            for metric in (name, MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS)
            for series in store.query(metric).values()
            for value in series.values
        ]
        assert len(reported) == 3 * 5
        assert all(0.0 <= value <= MINUTE_MS for value in reported)
        # Only the stuck instance raises its flag; spouts never do.
        assert pairs(store, name, "splitter_0") == never
        assert pairs(store, name, "spout_0") == never

    def test_topology_level_backpressure(self):
        sim, store = pipe(counter=stuck_counter())
        sim.set_source_rate("spout", RATE_TPM)
        sim.run_seconds(15)
        sim.set_instance_capacity_factor("counter", 0, 0.0)
        sim.run_seconds(45)
        topology = store.get(
            MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS, {"topology": "pipe"}
        )
        assert topology.to_pairs() == [(0, 45_000.0)]
        assert pairs(
            store, MetricNames.BACKPRESSURE_TIME_MS, "counter_0"
        ) == [(0, 45_000.0)]


class TestMinuteBoundaries:
    def test_minutes_flush_at_boundaries(self):
        sim, store = pipe()
        sim.run_seconds(59)
        assert len(store) == 0  # no series yet: the minute is still open
        sim.run_seconds(1)
        assert len(store) == 37
        for minute in (1, 2):
            sim.set_source_rate("spout", minute * 6_000.0)
            sim.run(1)
        assert pairs(store, MetricNames.EXECUTE_COUNT, "spout_0") == [
            (0, 0.0), (60, 6_000.0), (120, 12_000.0)
        ]

    def test_registered_instance_reports_even_if_idle(self):
        # No source rate: nothing moves, and every instance still reports
        # every series every minute (the models need aligned timestamps).
        sim, store = pipe()
        sim.run(2)
        # 7 series for the spout, 10 per splitter, 9 for the sink, plus
        # the topology's.
        assert len(store.keys()) == 7 + 2 * 10 + 9 + 1
        zero_metrics = {
            MetricNames.EXECUTE_COUNT, MetricNames.EMIT_COUNT,
            MetricNames.STREAM_EMIT_COUNT, MetricNames.RECEIVED_COUNT,
            MetricNames.SOURCE_COUNT, MetricNames.FAIL_COUNT,
            MetricNames.BACKPRESSURE_TIME_MS,
            MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS,
        }
        for key in store.keys():
            series = store.get(key.name, key.tag_dict())
            assert list(series.timestamps) == [0, 60], key
            if key.name in zero_metrics:
                assert list(series.values) == [0.0, 0.0], key

    def test_minute_start_advances(self):
        sim, store = pipe()
        sim.set_source_rate("spout", RATE_TPM)
        sim.run(3)
        for key in store.keys():
            series = store.get(key.name, key.tag_dict())
            assert list(series.timestamps) == [0, 60, 120], key


class TestDropoutScopes:
    """A dropout scope yields missing minutes for what it covers and
    changes nothing else."""

    @pytest.mark.parametrize(
        "scope, covered, hidden",
        [
            (("splitter", 1), {"instance": "splitter_1"}, 10),
            (("splitter", None), {"component": "splitter"}, 20),
            ((None, None), {}, 37),
        ],
        ids=["instance", "component", "topology"],
    )
    def test_scope_hides_its_minutes_and_nothing_else(
        self, scope, covered, hidden
    ):
        def run(dropout):
            sim, store = pipe()
            sim.set_source_rate("spout", RATE_TPM)
            sim.run(1)
            if dropout:
                sim.set_metric_dropout(*scope, active=True)
            sim.run(1)
            if dropout:
                sim.set_metric_dropout(*scope, active=False)
            sim.run(1)
            return store

        full, gappy = run(dropout=False), run(dropout=True)
        assert full.keys() == gappy.keys()
        gaps = 0
        for key in full.keys():
            expected = full.get(key.name, key.tag_dict()).to_pairs()
            assert [ts for ts, _ in expected] == [0, 60, 120]
            if covered.items() <= key.tag_dict().items():
                del expected[1]
                gaps += 1
            assert gappy.get(key.name, key.tag_dict()).to_pairs() == expected
        assert gaps == hidden
