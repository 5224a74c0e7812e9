"""FaultInjector: validation at attach, injection/recovery mid-run, and
each fault class's observable contract in the metrics store."""

from __future__ import annotations

import pytest

from repro.errors import FaultError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.heron.metrics import MetricNames
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.store import MetricsStore

M = 1e6


def _sim(plan=None, seed=0):
    params = WordCountParams(splitter_parallelism=2, counter_parallelism=4)
    topology, packing, logic = build_word_count(params)
    store = MetricsStore()
    sim = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=seed),
        faults=plan,
    )
    sim.set_source_rate("sentence-spout", 16 * M)
    return sim, store


class TestAttachValidation:
    def _attach(self, event):
        sim, _ = _sim()
        FaultInjector(FaultPlan(events=(event,))).attach(sim)

    def test_unknown_component(self):
        with pytest.raises(FaultError, match="unknown component"):
            self._attach(FaultEvent(at_seconds=0, kind="crash",
                                    component="parser", index=0,
                                    duration_seconds=60))

    def test_index_out_of_range(self):
        with pytest.raises(FaultError, match="no instance index"):
            self._attach(FaultEvent(at_seconds=0, kind="crash",
                                    component="splitter", index=9,
                                    duration_seconds=60))

    def test_straggler_on_spout(self):
        with pytest.raises(FaultError, match="spout"):
            self._attach(FaultEvent(at_seconds=0, kind="straggler",
                                    component="sentence-spout", index=0,
                                    duration_seconds=60, factor=0.5))

    def test_unknown_container(self):
        with pytest.raises(FaultError, match="unknown container"):
            self._attach(FaultEvent(at_seconds=0, kind="stmgr_stall",
                                    container=99, duration_seconds=60))


class TestInjectionLifecycle:
    def test_log_and_recovery_times(self):
        plan = FaultPlan(events=(
            FaultEvent(at_seconds=120, kind="crash", component="splitter",
                       index=0, duration_seconds=60),
        ))
        sim, _ = _sim(plan)
        sim.run(5)
        entries = [(t, action) for t, action, _ in sim.fault_log]
        assert (120.0, "inject") in entries
        assert (180.0, "recover") in entries
        assert not sim.instance_down("splitter", 0)

    def test_permanent_crash_never_recovers(self):
        plan = FaultPlan(events=(
            FaultEvent(at_seconds=120, kind="crash", component="splitter",
                       index=1),
        ))
        sim, _ = _sim(plan)
        sim.run(5)
        assert sim.instance_down("splitter", 1)
        assert [a for _, a, _ in sim.fault_log] == ["inject"]

    def test_crash_blacks_out_instance_minutes(self):
        plan = FaultPlan(events=(
            FaultEvent(at_seconds=120, kind="crash", component="splitter",
                       index=0, duration_seconds=120),
        ))
        sim, store = _sim(plan)
        sim.run(6)
        down = store.aggregate(
            MetricNames.EXECUTE_COUNT,
            {"component": "splitter", "instance": "splitter_0"},
        )
        up = store.aggregate(
            MetricNames.EXECUTE_COUNT,
            {"component": "splitter", "instance": "splitter_1"},
        )
        missing = set(up.timestamps.tolist()) - set(down.timestamps.tolist())
        assert missing == {120, 180}

    def test_crash_spikes_backpressure(self):
        plan = FaultPlan(events=(
            FaultEvent(at_seconds=120, kind="crash", component="splitter",
                       index=0, duration_seconds=120),
        ))
        sim, store = _sim(plan)
        sim.run(6)
        bp = store.get(
            MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS,
            {"topology": "word-count"},
        )
        by_minute = dict(zip(bp.timestamps.tolist(), bp.values.tolist()))
        assert by_minute[60] == 0.0  # healthy before the crash
        assert max(by_minute[120], by_minute[180]) > 10_000

    def test_straggler_dips_throughput(self):
        plan = FaultPlan(events=(
            FaultEvent(at_seconds=120, kind="straggler",
                       component="splitter", index=0,
                       duration_seconds=120, factor=0.2),
        ))
        sim, store = _sim(plan)
        sim.run(6)
        series = store.aggregate(
            MetricNames.EXECUTE_COUNT,
            {"component": "splitter", "instance": "splitter_0"},
        )
        by_minute = dict(zip(series.timestamps.tolist(), series.values.tolist()))
        assert by_minute[120] < 0.5 * by_minute[60]
        assert sim.instance_capacity_factors("splitter")[0] == 1.0

    def test_stall_spikes_backpressure_but_keeps_metrics(self):
        # Container 2 holds splitter_0 in this packing, so stalling its
        # stream manager strands in-flight tuples and spikes backpressure
        # (a spout-only container would just dip throughput).
        plan = FaultPlan(events=(
            FaultEvent(at_seconds=120, kind="stmgr_stall", container=2,
                       duration_seconds=60),
        ))
        sim, store = _sim(plan)
        sim.run(5)
        bp = store.get(
            MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS,
            {"topology": "word-count"},
        )
        by_minute = dict(zip(bp.timestamps.tolist(), bp.values.tolist()))
        assert by_minute[60] == 0.0
        assert by_minute[120] > 10_000
        # The stalled container's instances still report their minutes.
        for instance in sim.packing.container(2).instances:
            series = store.aggregate(
                MetricNames.EXECUTE_COUNT,
                {"instance": instance.instance_id},
            )
            assert 120 in series.timestamps.tolist()

    def test_component_dropout_hides_all_instances(self):
        plan = FaultPlan(events=(
            FaultEvent(at_seconds=120, kind="metric_dropout",
                       component="counter", duration_seconds=120),
        ))
        sim, store = _sim(plan)
        sim.run(6)
        for index in range(4):
            series = store.aggregate(
                MetricNames.EXECUTE_COUNT,
                {"component": "counter", "instance": f"counter_{index}"},
            )
            stamps = set(series.timestamps.tolist())
            assert {120, 180}.isdisjoint(stamps)
            assert {0, 60, 240, 300}.issubset(stamps)

    def test_topology_dropout_hides_everything(self):
        plan = FaultPlan(events=(
            FaultEvent(at_seconds=120, kind="metric_dropout",
                       duration_seconds=60),
        ))
        sim, store = _sim(plan)
        sim.run(4)
        bp = store.get(
            MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS,
            {"topology": "word-count"},
        )
        assert 120 not in bp.timestamps.tolist()

    def test_expired_window_skipped_entirely(self):
        # A window that closed before the run reached it is a no-op.
        plan = FaultPlan(events=(
            FaultEvent(at_seconds=0.2, kind="crash", component="splitter",
                       index=0, duration_seconds=0.3),
        ))
        sim, _ = _sim(plan)
        sim.run(1)
        assert sim._injector.log == []

    def test_throughput_recovers_after_crash(self):
        plan = FaultPlan(events=(
            FaultEvent(at_seconds=120, kind="crash", component="splitter",
                       index=0, duration_seconds=60),
        ))
        sim, store = _sim(plan)
        sim.run(7)
        sink = store.aggregate(
            MetricNames.EXECUTE_COUNT, {"component": "counter"}
        )
        by_minute = dict(zip(sink.timestamps.tolist(), sink.values.tolist()))
        healthy = by_minute[60]
        assert by_minute[120] < 0.8 * healthy      # the dip
        assert by_minute[360] > 0.9 * healthy      # full recovery

    def test_plans_without_injector_unchanged(self):
        sim, store = _sim(plan=None)
        sim.run(2)
        assert sim.fault_log == []
