"""Calibration and the sweep artifact fit from one frame — and fit what
the parent's per-call reads fitted.

``calibrate_topology`` used to make one ``aggregate_complete`` scan per
component, metric and stream, and the artifact two ``query`` scans per
bolt on top; both now read one ``topology_frame``.  Over generated
topologies × fault plans the fits, CPU models, warnings and errors must
be the ones a model of the parent produces: the same calibration run
against per-call linear reads (and asked for exactly the parent's reads),
and a port of the parent's per-instance CPU pairing.

The last class holds the snapshot property: a writer appending minutes
while the cache calibrates can tear nothing — throughput fits and CPU
models derive from one minute set, and a stamp older than the data is
recomputed.
"""

from __future__ import annotations

import sys
import threading
import warnings

import numpy as np
import pytest

from repro.core.calibration_cache import CalibrationCache
from repro.core.cpu_model import fit_cpu_model
from repro.core.performance_models import calibrate_topology, evaluate_throughput
from repro.errors import CalibrationError, ModelError, ReproError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.heron.metrics import MetricNames
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.tracker import TopologyTracker
from repro.sweep.artifact import CalibrationArtifact
from repro.timeseries.store import MetricsStore
from repro.workloads import generate_workload
from tests.timeseries.linear_reference import (
    linear_aggregate_complete,
    linear_query,
)


pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.errors.DegradedMetricsWarning"
)


# ----------------------------------------------------------------------
# A model of the parent
# ----------------------------------------------------------------------
class _PerCallGroup:
    """What one ``frame.group(...)`` stands for, read the parent's way."""

    def __init__(self, store, name, tag_filter, start):
        self._read = (store, name, tag_filter, start)

    def complete(self):
        return linear_aggregate_complete(*self._read)


class PerCallReads:
    """A store whose "frame" is a separate linear scan per group — the
    parent's read pattern — and which records every read it is asked for."""

    def __init__(self, store):
        self.store = store
        self.reads = []

    def topology_frame(self, topology, names, start=None):
        outer = self

        class Frame:
            def group(self, name, component, stream=None):
                tag_filter = {"topology": topology, "component": component}
                if stream is not None:
                    tag_filter["stream"] = stream
                outer.reads.append((name, tag_filter, start))
                return _PerCallGroup(outer.store, name, tag_filter, start)

        return Frame()


def parent_reads(topology, since):
    """The ``degraded_aggregate`` calls of the parent's ``calibrate_topology``."""
    reads = []
    for spec in topology.topological_order():
        tags = {"topology": topology.name, "component": spec.name}
        if spec.is_spout:
            reads.append((MetricNames.SOURCE_COUNT, tags, since))
            continue
        reads.append((MetricNames.RECEIVED_COUNT, tags, since))
        for stream in sorted({s.name for s in topology.outputs(spec.name)}):
            reads.append(
                (MetricNames.STREAM_EMIT_COUNT, {**tags, "stream": stream}, since)
            )
    return reads


def parent_cpu_models(topology, store, warmup_minutes, since_seconds):
    """``sweep.artifact._fit_cpu_models`` of the parent commit."""
    models = {}
    for spec in topology.bolts():
        tags = {"topology": topology.name, "component": spec.name}
        received = linear_query(store, MetricNames.RECEIVED_COUNT, tags, since_seconds)
        cpu = linear_query(store, MetricNames.CPU_LOAD, tags, since_seconds)
        xs, ys = [], []
        by_instance = {
            dict(key.tags).get("instance"): series for key, series in cpu.items()
        }
        for key, series in received.items():
            cpu_series = by_instance.get(dict(key.tags).get("instance"))
            if cpu_series is None:
                continue
            common = np.intersect1d(series.timestamps, cpu_series.timestamps)
            common = common[warmup_minutes:]
            if common.shape[0] < 3:
                continue
            xs.append(series.values[np.isin(series.timestamps, common)])
            ys.append(cpu_series.values[np.isin(cpu_series.timestamps, common)])
        if not xs:
            continue
        try:
            model, _ = fit_cpu_model(spec.name, np.concatenate(xs), np.concatenate(ys))
        except ModelError:
            continue
        models[spec.name] = model
    return models


def observed(call):
    """``(result | error, warnings)`` of one calibration, comparably."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except ReproError as exc:
            result = (type(exc).__name__, str(exc))
    return result, [(w.category.__name__, str(w.message)) for w in caught]


# ----------------------------------------------------------------------
# Generated topologies x fault plans
# ----------------------------------------------------------------------
def deploy(shape, seed, plan=None):
    workload = generate_workload(shape, seed=seed)
    topology, packing, logic = workload.deployment()
    store = MetricsStore()
    tracker = TopologyTracker()
    tracker.register(topology, packing)
    simulation = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=3), faults=plan
    )
    for level in (0.4, 0.6, 0.8, 1.1):
        workload.set_source_rates(simulation, level * workload.base_rate_tpm)
        simulation.run(3)
    return tracker.get(workload.name), store


def fault_plans(topology):
    bolt = topology.bolts()[0].name
    last = topology.bolts()[-1].name
    spout = topology.spouts()[0].name
    return {
        "healthy": None,
        "crash-and-restart": FaultPlan(events=(
            FaultEvent(at_seconds=240, kind="crash", component=bolt, index=0,
                       duration_seconds=120),
        )),
        "crash-for-good": FaultPlan(events=(
            FaultEvent(at_seconds=300, kind="crash", component=last, index=0),
        )),
        "dropouts": FaultPlan(events=(
            FaultEvent(at_seconds=180, kind="metric_dropout", component=spout,
                       duration_seconds=60),
            FaultEvent(at_seconds=420, kind="metric_dropout", component=bolt,
                       index=0, duration_seconds=120),
        )),
        "blackout": FaultPlan(events=(
            FaultEvent(at_seconds=120, kind="metric_dropout"),
        )),
    }


SHAPES = [("diamond", 7), ("fanin", 7), ("deep_chain", 11), ("multi_spout", 5)]
PLANS = ["healthy", "crash-and-restart", "crash-for-good", "dropouts", "blackout"]


@pytest.mark.parametrize("shape,seed", SHAPES)
@pytest.mark.parametrize("plan_name", PLANS)
@pytest.mark.parametrize("since", [None, 360])
def test_fits_equal_the_parents(shape, seed, plan_name, since):
    workload = generate_workload(shape, seed=seed)
    tracked, store = deploy(shape, seed, fault_plans(workload.topology)[plan_name])
    topology = tracked.topology

    cpu_models: dict = {}
    now = observed(lambda: calibrate_topology(
        tracked, store, since_seconds=since, cpu_models=cpu_models
    ))
    per_call = PerCallReads(store)
    then = observed(lambda: calibrate_topology(
        tracked, per_call, since_seconds=since
    ))
    assert now[1] == then[1]  # the same warnings, in the same order
    if isinstance(then[0], tuple) and isinstance(then[0][0], str):
        assert now[0] == then[0]  # the same error, worded the same
        assert then[0][0] == "CalibrationError"
        return
    assert now[0][1] == then[0][1]  # PiecewiseLinearFit per bolt, ==
    for rate in (0.5 * workload.base_rate_tpm, 2.0 * workload.base_rate_tpm):
        assert evaluate_throughput(
            topology.name, now[0][0], now[0][1], rate
        ).as_dict() == evaluate_throughput(
            topology.name, then[0][0], then[0][1], rate
        ).as_dict()
    assert per_call.reads == parent_reads(topology, since)
    assert cpu_models == parent_cpu_models(topology, store, 1, since)

    artifact = CalibrationArtifact.build(tracked, store, since_seconds=since)
    assert artifact.fits == then[0][1]
    assert artifact.cpu_models == cpu_models
    assert CalibrationArtifact.build(
        tracked, store, since_seconds=since, fit_cpu=False
    ).cpu_models == {}


def test_healthy_deployments_fit_every_bolt_cpu_model():
    tracked, store = deploy("diamond", 7)
    artifact = CalibrationArtifact.build(tracked, store)
    assert set(artifact.cpu_models) == {b.name for b in tracked.topology.bolts()}


def test_cpu_pairing_with_duplicate_and_missing_instance_tags():
    """The last ``cpu-load`` series of an instance tag wins, a member
    without the tag pairs with the other metric's member without it."""
    tracked, store = deploy("diamond", 7)
    topology = tracked.topology
    bolt = topology.bolts()[0].name
    tags = {"topology": topology.name, "component": bolt}
    minutes = [60 * m for m in range(1, 13)]
    store.write_many(
        MetricNames.CPU_LOAD, [(t, 0.5 + t / 1e4) for t in minutes],
        {**tags, "instance": f"{bolt}_0", "container": "99"},
    )
    store.write_many(MetricNames.CPU_LOAD, [(t, 0.25) for t in minutes[2:]], tags)
    store.write_many(
        MetricNames.RECEIVED_COUNT, [(t, 1000.0 + t) for t in minutes[1:]], tags
    )
    cpu_models: dict = {}
    calibrate_topology(tracked, store, cpu_models=cpu_models)
    assert cpu_models == parent_cpu_models(topology, store, 1, None)
    assert bolt in cpu_models


# ----------------------------------------------------------------------
# One snapshot
# ----------------------------------------------------------------------
class TestOneSnapshot:
    def test_fits_and_cpu_models_share_a_minute_set_under_a_writer(self):
        """Every minute the writer appends scales ``cpu-load`` differently,
        so a CPU model fitted from more (or fewer) minutes than the
        throughput fits would not equal the one a quiet store gives for
        the calibration's own minute count."""
        tracked, store = deploy("diamond", 7)
        topology = tracked.topology
        tracker = TopologyTracker()
        tracker.register(topology, tracked.packing)
        cache = CalibrationCache(tracker, store)
        keys = [
            key for name in (
                MetricNames.SOURCE_COUNT, MetricNames.RECEIVED_COUNT,
                MetricNames.STREAM_EMIT_COUNT, MetricNames.CPU_LOAD,
            )
            for key in store.query(name, {"topology": topology.name})
        ]
        last = {key: store.get(key.name, dict(key.tags)) for key in keys}
        first_new = store.latest_timestamp() + 60
        stop = threading.Event()
        written = []

        def writer():
            minute = first_new
            while not stop.is_set() and minute < first_new + 60 * 400:
                scale = 1.0 + 0.01 * len(written)
                store.apply_sample_batch([
                    (
                        key, minute,
                        float(last[key].values[-1]) * (
                            scale if key.name == MetricNames.CPU_LOAD else 1.0
                        ),
                    )
                    for key in keys
                ])
                written.append(minute)
                minute += 60
                stop.wait(0.001)  # leave the reader some of the minutes

        thread = threading.Thread(target=writer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-calibration, often
        thread.start()
        try:
            seen = []
            for _ in range(25):
                calibration = cache.get(topology.name)
                artifact = CalibrationArtifact.from_calibration(calibration)
                seen.append((calibration, artifact))
        finally:
            stop.set()
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()

        bolt = topology.bolts()[0].name
        for calibration, artifact in seen:
            assert artifact.cpu_models is calibration.cpu_models
            # How many minutes the throughput fits saw...
            minutes = calibration.fits[bolt].n_points + calibration.warmup_minutes
            # ...is how many the CPU fits saw: refit on a quiet copy cut
            # to that many minutes.
            quiet = MetricsStore()
            for key in keys:
                series = store.get(key.name, dict(key.tags))
                store_minutes = list(zip(
                    series.timestamps.tolist()[:minutes],
                    series.values.tolist()[:minutes],
                ))
                quiet.write_many(key.name, store_minutes, dict(key.tags))
            expected: dict = {}
            base, fits = calibrate_topology(tracked, quiet, cpu_models=expected)
            assert fits == calibration.fits
            assert expected == calibration.cpu_models
        assert len(written) > 0

    def test_a_stamp_older_than_the_data_is_recomputed(self, monkeypatch):
        from repro.core import calibration_cache as cache_module

        tracked, store = deploy("diamond", 7)
        tracker = TopologyTracker()
        tracker.register(tracked.topology, tracked.packing)
        cache = CalibrationCache(tracker, store)
        original = cache_module.calibrate_topology
        name = tracked.topology.name

        def racing(tracked, store, **kwargs):
            result = original(tracked, store, **kwargs)
            if not racing.done:  # lands after the frame was read
                racing.done = True
                store.write("probe", 60, 1.0, {"topology": name})
            return result

        racing.done = False
        monkeypatch.setattr(cache_module, "calibrate_topology", racing)
        torn = cache.get(name)
        assert torn.data_version < store.data_version(name)
        fresh = cache.get(name)
        assert fresh is not torn
        assert fresh.data_version == store.data_version(name)
        assert cache.get(name) is fresh

    def test_from_calibration_reads_no_store(self):
        tracked, store = deploy("diamond", 7)
        tracker = TopologyTracker()
        tracker.register(tracked.topology, tracked.packing)
        calibration = CalibrationCache(tracker, store).get(tracked.topology.name)
        store.clear()
        artifact = CalibrationArtifact.from_calibration(calibration)
        assert artifact.cpu_models == calibration.cpu_models != {}
        with pytest.raises(CalibrationError):
            calibrate_topology(tracked, store)
