"""CalibrationCache: the answers of calibrating per request, never stale.

The cache may only ever change *when* a calibration happens.  Every
model response drawn through it must equal (canonical JSON) the response
of the uncached path on the same tracker and store, through any
interleaving of metric writes, redeploys and requests; and nothing it
hands out may be older than the ``(plan_revision, data_version)`` stamp
that was current when it was asked.
"""

from __future__ import annotations

import functools
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.calibration_cache as cache_module
from repro.config import load_config
from repro.config.registry import build_registry
from repro.core.calibration_cache import CalibrationCache
from repro.durability.deadline import (
    Deadline,
    DeadlineExceeded,
    deadline_scope,
)
from repro.errors import CalibrationError, ReproError
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.tracker import TopologyTracker
from repro.serving.fingerprint import canonical_json
from repro.sweep import PlanSweepEngine
from repro.timeseries.store import MetricsStore
from repro.workloads import SHAPES, generate_workload
from tests.clock import ManualClock
from tests.readings import reading

LEVELS = (0.4, 0.55, 0.7)
MINUTES_PER_LEVEL = 3
#: Minutes a fresh store starts with; the rest arrive as "write" steps.
PRELOADED = 6
#: Writes racing the two readers in the interleaving test.
WRITES = 50


@functools.lru_cache(maxsize=None)
def _history(shape: str, seed: int):
    """``(workload, minutes)``: a generated deployment and its simulated
    samples as one ``apply_sample_batch`` entry list per minute."""
    workload = generate_workload(shape, seed=seed)
    topology, packing, logic = workload.deployment()
    store = MetricsStore()
    simulation = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=seed + 1)
    )
    for level in LEVELS:
        workload.set_source_rates(simulation, level * workload.base_rate_tpm)
        simulation.run(MINUTES_PER_LEVEL)
    by_minute: dict[int, list] = {}
    for key in store.keys():
        series = store.get(key.name, key.tag_dict())
        for timestamp, value in zip(series.timestamps, series.values):
            by_minute.setdefault(int(timestamp), []).append(
                (key, int(timestamp), float(value))
            )
    return workload, [by_minute[ts] for ts in sorted(by_minute)]


class _Deployment:
    """One tracker + store, with the cached and the uncached model tier."""

    def __init__(self, shape: str, seed: int, preloaded: int = PRELOADED):
        self.workload, minutes = _history(shape, seed)
        self.name = self.workload.name
        self.store = MetricsStore()
        self.tracker = TopologyTracker()
        self.tracker.register(self.workload.topology, self.workload.packing)
        self._pending = list(minutes)
        self._probe_ts = 0
        for _ in range(preloaded):
            self.write()
        self.cache = CalibrationCache(self.tracker, self.store)
        config = load_config({})
        self.cached_models = build_registry(
            config, self.tracker, self.store, self.cache
        ).performance_model(None)
        self.plain_models = build_registry(
            config, self.tracker, self.store
        ).performance_model(None)
        self.cached_engine = PlanSweepEngine(
            self.tracker, self.store, calibrations=self.cache
        )
        self.plain_engine = PlanSweepEngine(self.tracker, self.store)

    def bolts(self) -> list[str]:
        return [
            name
            for name, spec in self.workload.topology.components.items()
            if not spec.is_spout
        ]

    def write(self) -> None:
        """The next simulated minute; past the history, one probe sample."""
        if self._pending:
            self.store.apply_sample_batch(self._pending.pop(0))
            return
        self._probe_ts += 60
        self.store.write(
            "probe", self._probe_ts, 1.0, {"topology": self.name}
        )

    def redeploy(self, bolt: str, parallelism: int) -> None:
        scaled = self.workload.with_parallelisms({bolt: parallelism})
        self.tracker.update(self.name, scaled.topology, scaled.packing)


def _outcome(compute) -> str:
    """Canonical JSON of a response, or of the error it raised."""
    try:
        return canonical_json(compute())
    except ReproError as exc:
        return canonical_json({"error": type(exc).__name__, "detail": str(exc)})


STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("write")),
        st.tuples(
            st.just("redeploy"), st.integers(0, 7), st.integers(1, 5)
        ),
        st.tuples(
            st.just("predict"),
            st.floats(0.2, 1.5),
            st.one_of(st.none(), st.tuples(st.integers(0, 7), st.integers(1, 6))),
        ),
        st.tuples(st.just("sweep"), st.floats(0.2, 1.5), st.integers(1, 3)),
    ),
    min_size=1,
    max_size=12,
)


class TestSameAnswersAsUncached:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=st.sampled_from(SHAPES),
        seed=st.integers(0, 2),
        preloaded=st.integers(3, PRELOADED),
        steps=STEPS,
    )
    def test_interleaved_writes_redeploys_and_requests(
        self, shape, seed, preloaded, steps
    ):
        deployment = _Deployment(shape, seed, preloaded)
        bolts = deployment.bolts()
        base = deployment.workload.base_rate_tpm
        for step in steps:
            if step[0] == "write":
                deployment.write()
            elif step[0] == "redeploy":
                deployment.redeploy(bolts[step[1] % len(bolts)], step[2])
            elif step[0] == "predict":
                _, level, proposal = step
                parallelisms = (
                    None
                    if proposal is None
                    else {bolts[proposal[0] % len(bolts)]: proposal[1]}
                )
                for cached, plain in zip(
                    deployment.cached_models, deployment.plain_models
                ):
                    assert _outcome(
                        lambda: cached.predict(
                            deployment.name, source_rate=level * base,
                            parallelisms=parallelisms,
                        ).as_dict()
                    ) == _outcome(
                        lambda: plain.predict(
                            deployment.name, source_rate=level * base,
                            parallelisms=parallelisms,
                        ).as_dict()
                    )
            else:
                _, level, width = step
                plans = [
                    {bolts[0]: a, bolts[-1]: b}
                    for a in range(1, width + 1)
                    for b in range(1, width + 1)
                ]
                assert _outcome(
                    lambda: deployment.cached_engine.sweep(
                        deployment.name, level * base, plans
                    )
                ) == _outcome(
                    lambda: deployment.plain_engine.sweep(
                        deployment.name, level * base, plans
                    )
                )
        # One entry per tracked topology, however the steps interleaved.
        assert reading(deployment.cache, "calibration.entries") <= 1


@pytest.fixture()
def deployment():
    return _Deployment("diamond", 0)


@pytest.fixture()
def calibrations(monkeypatch):
    """Every ``calibrate_topology`` call the cache makes, as it is made."""
    calls: list[int] = []
    original = cache_module.calibrate_topology

    def counting(tracked, store, **kwargs):
        calls.append(store.data_version(tracked.name))
        return original(tracked, store, **kwargs)

    monkeypatch.setattr(cache_module, "calibrate_topology", counting)
    return calls


class TestStamping:
    def test_unchanged_stamp_is_served_from_memory(
        self, deployment, calibrations
    ):
        first = deployment.cache.get(deployment.name)
        assert deployment.cache.get(deployment.name) is first
        assert len(calibrations) == 1
        assert [
            reading(deployment.cache, f"calibration.{name}")
            for name in ("hits", "misses", "entries")
        ] == [1, 1, 1]

    def test_write_and_redeploy_each_recalibrate(
        self, deployment, calibrations
    ):
        first = deployment.cache.get(deployment.name)
        deployment.write()
        second = deployment.cache.get(deployment.name)
        assert second.data_version > first.data_version
        deployment.redeploy(deployment.bolts()[0], 5)
        third = deployment.cache.get(deployment.name)
        assert third.tracked.revision > second.tracked.revision
        assert len(calibrations) == 3
        assert reading(deployment.cache, "calibration.entries") == 1

    def test_another_window_is_not_a_stale_reuse(
        self, deployment, calibrations
    ):
        whole = deployment.cache.get(deployment.name)
        recent = deployment.cache.get(deployment.name, since_seconds=120)
        assert recent is not whole
        assert recent.since_seconds == 120
        assert len(calibrations) == 2

    def test_write_during_calibration_forces_the_next_get_to_recalibrate(
        self, deployment, monkeypatch
    ):
        """The stamp is read before the store is: an entry fitted while a
        write landed is stamped with the older version, so it can never
        be taken for a calibration of the newer data."""
        original = cache_module.calibrate_topology
        calls = []

        def racing(tracked, store, **kwargs):
            calls.append(store.data_version(tracked.name))
            if len(calls) == 1:
                deployment.write()  # lands after the stamp was read
            return original(tracked, store, **kwargs)

        monkeypatch.setattr(cache_module, "calibrate_topology", racing)
        torn = deployment.cache.get(deployment.name)
        current = deployment.store.data_version(deployment.name)
        assert torn.data_version < current
        fresh = deployment.cache.get(deployment.name)
        assert fresh is not torn
        assert fresh.data_version == current
        assert len(calls) == 2
        assert deployment.cache.get(deployment.name) is fresh


class TestFailuresAreNotCached:
    def test_calibration_error(self, deployment, monkeypatch):
        original = cache_module.calibrate_topology
        attempts = []

        def failing_once(tracked, store, **kwargs):
            attempts.append(1)
            if len(attempts) == 1:
                raise CalibrationError("no usable metric minutes")
            return original(tracked, store, **kwargs)

        monkeypatch.setattr(cache_module, "calibrate_topology", failing_once)
        with pytest.raises(CalibrationError):
            deployment.cache.get(deployment.name)
        assert reading(deployment.cache, "calibration.entries") == 0
        # Same stamp, no write in between: the failure was not kept.
        assert deployment.cache.get(deployment.name).fits
        assert len(attempts) == 2

    def test_too_few_minutes_then_enough(self):
        deployment = _Deployment("diamond", 0, preloaded=2)
        with pytest.raises(CalibrationError):
            deployment.cache.get(deployment.name)
        assert reading(deployment.cache, "calibration.entries") == 0
        for _ in range(3):
            deployment.write()
        assert deployment.cache.get(deployment.name).fits

    def test_expired_deadline(self, deployment, calibrations):
        clock = ManualClock()
        deadline = Deadline(1.0, clock)
        clock.advance(2.0)
        with deadline_scope(deadline), pytest.raises(DeadlineExceeded):
            deployment.cache.get(deployment.name)
        assert reading(deployment.cache, "calibration.entries") == 0
        assert deployment.cache.get(deployment.name).fits
        assert len(calibrations) == 2


class TestHealthVerdict:
    def test_assessed_once_per_stamp(self, deployment, monkeypatch):
        assessed = []
        original = cache_module.assess_topology_metrics

        def counting(*args, **kwargs):
            assessed.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cache_module, "assess_topology_metrics", counting)
        first = deployment.cache.health(deployment.name, 0.25)
        assert first.usable
        assert deployment.cache.health(deployment.name, 0.25) is first
        assert len(assessed) == 1
        deployment.write()
        assert deployment.cache.health(deployment.name, 0.25) is not first
        assert len(assessed) == 2


def test_readers_never_get_a_calibration_older_than_they_asked_for(deployment):
    """Two readers against one writer: every calibration handed out is
    stamped at or after the data version read just before asking.  The
    writer waits for both readers to be served between its writes, so
    every write races reads in flight."""
    name, cache, store = deployment.name, deployment.cache, deployment.store
    stop = threading.Event()
    problems: list[str] = []
    served = [0, 0]
    progress = threading.Condition()

    def read(slot: int) -> None:
        try:
            while not stop.is_set():
                asked = store.data_version(name)
                calibration = cache.get(name)
                if calibration.data_version < asked:
                    problems.append(
                        f"asked at {asked}, got {calibration.data_version}"
                    )
                    return
                with progress:
                    served[slot] += 1
                    progress.notify_all()
        except Exception as exc:  # surfaced by the assertion below
            problems.append(repr(exc))

    def write() -> None:
        try:
            for _ in range(WRITES):
                with progress:
                    mark = list(served)
                deployment.write()
                with progress:
                    if not progress.wait_for(
                        lambda: all(n > m for n, m in zip(served, mark)), 30
                    ):
                        problems.append("the readers stopped being served")
                        return
        except Exception as exc:
            problems.append(repr(exc))

    threads = [
        threading.Thread(target=read, args=(0,)),
        threading.Thread(target=read, args=(1,)),
        threading.Thread(target=write),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        threads[2].join(timeout=60)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not problems
    assert all(count > 0 for count in served)
    assert reading(cache, "calibration.misses") > 1
    assert reading(cache, "calibration.entries") == 1
