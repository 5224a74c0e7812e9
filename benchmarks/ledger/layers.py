"""The traced run: the same work, in this process, one span per layer.

Two passes over the workload's generated inputs, both calling only the
layers' public functions and recording spans from this file:

*Mirror pass* — one round of the pipeline without sockets or a child:
simulate, ``encode_frames`` -> ``decode_frames`` -> ``ingest_frames`` per
batch, per-sample durable writes, close and reopen the store (recovery),
then the round's requests through ``CaladriusApp.handle``.  Instance
methods of objects this file constructs (the store, its WAL, the serving
layer, the sweep engine) are wrapped so their calls show up as child
spans.  Run once through :class:`~benchmarks.ledger.trace.NullTracer` and
once traced, it yields ``trace_overhead_pct``; set against one untraced
end-to-end round of the same work it yields ``unattributed_share`` — the
transport, process start-up and glue no in-process span can see (both
sides of either ratio scaled to the reference machine speed).

*Probe pass* — direct calls into the finer-grained functions the mirror
pass cannot split from outside (calibration, fits, the sweep kernel,
forecasting, checkpointing, the write path per fsync policy, ...), a few
repetitions each on the same data.

Timings here are report-only; the counts repeat exactly for a fixed seed.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from benchmarks.ledger import e2e, inputs, workloads
from benchmarks.ledger.child import TMP_ROOT
from benchmarks.ledger.speed import BRACKET, SpeedMeter
from benchmarks.ledger.trace import NullTracer, Tracer
from benchmarks.ledger.workloads import Request, Workload
from repro.api.app import CaladriusApp
from repro.api.async_server import AsyncCaladriusServer
from repro.api.client import BatchWriter, CaladriusClient
from repro.api.ingest import decode_frames, encode_frames
from repro.config import load_config
from repro.core.calibration import component_observations, fit_piecewise_linear
from repro.core.performance_models import calibrate_topology, evaluate_throughput
from repro.durability import CheckpointManager, DurableMetricsStore
from repro.forecasting.prophet_lite import ProphetLite
from repro.graph.topology_graph import source_sink_paths
from repro.heron.metrics import MetricNames
from repro.heron.tracker import TopologyTracker
from repro.serving import RequestDescriptor
from repro.sweep import CalibrationArtifact
from repro.sweep.kernel import estimate_plan_cpu, evaluate_plans
from repro.sweep.pool import ValidationSpec, validate_plans
from repro.timeseries.store import MetricKey, MetricsStore

#: Repetitions of each micro-probe (per-sample writes, cache get/put, ...).
PROBE_REPEATS = 200
#: Repetitions of each model-tier probe (calibration, artifact build, ...).
MODEL_REPEATS = 3
VALIDATE_TOP = 8
VALIDATE_WORKERS = 2

# name -> (unit, better)
PER_LAYER = {
    "workloads.generator.generate_s": ("s", "lower"),
    "heron.simulation.construct_s": ("s", "lower"),
    "heron.simulation.run_s_per_sim_min": ("s", "lower"),
    "heron.simulation.run_s_per_sim_min_small": ("s", "lower"),
    "heron.simulation.samples_emitted": ("count", "lower"),
    "timeseries.store.append_minute_batch_us_per_sample": ("us", "lower"),
    "api.ingest.encode_us_per_sample": ("us", "lower"),
    "api.ingest.decode_us_per_sample": ("us", "lower"),
    "api.ingest.bytes_per_sample": ("bytes", "lower"),
    "api.client.batch_flushes": ("count", "lower"),
    "durability.store.ingest_frames_us_per_sample": ("us", "lower"),
    "durability.wal.append_bodies_us_per_sample": ("us", "lower"),
    "durability.wal.fsync_ms_p50": ("ms", "lower"),
    "durability.wal.fsyncs": ("count", "lower"),
    "durability.wal.bytes_per_sample": ("bytes", "lower"),
    "durability.wal.segments": ("count", "lower"),
    "timeseries.store.apply_sample_batch_us_per_sample": ("us", "lower"),
    "durability.store.write_us.always": ("us", "lower"),
    "durability.store.write_us.interval": ("us", "lower"),
    "durability.store.write_us.never": ("us", "lower"),
    "timeseries.store.write_us": ("us", "lower"),
    "durability.store.recover_s": ("s", "lower"),
    "durability.wal.replay_us_per_record": ("us", "lower"),
    "durability.store.replayed_records": ("count", "lower"),
    "durability.checkpoint.checkpoint_s": ("s", "lower"),
    "durability.checkpoint.bytes": ("bytes", "lower"),
    "timeseries.store.aggregate_us": ("us", "lower"),
    "timeseries.store.series": ("count", "lower"),
    "timeseries.store.samples": ("count", "lower"),
    "core.performance_models.calibrate_topology_ms": ("ms", "lower"),
    "core.calibration.fit_piecewise_linear_us": ("us", "lower"),
    "core.performance_models.evaluate_throughput_us": ("us", "lower"),
    "graph.topology_graph.source_sink_paths_us": ("us", "lower"),
    "forecasting.prophet_lite.fit_ms": ("ms", "lower"),
    "forecasting.prophet_lite.predict_ms": ("ms", "lower"),
    "sweep.artifact.build_ms": ("ms", "lower"),
    "sweep.kernel.evaluate_plans_us_per_plan": ("us", "lower"),
    "sweep.engine.artifact_hits": ("count", "higher"),
    "sweep.engine.artifact_misses": ("count", "lower"),
    "sweep.pool.validate_s_per_plan": ("s", "lower"),
    "serving.fingerprint.key_us": ("us", "lower"),
    "serving.cache.get_us": ("us", "lower"),
    "serving.cache.put_us": ("us", "lower"),
    "serving.cache.hit_ratio": ("ratio", "higher"),
    "serving.cache.evictions": ("count", "lower"),
    "serving.layer.execute_hit_us": ("us", "lower"),
    "serving.layer.execute_miss_ms": ("ms", "lower"),
    "serving.singleflight.coalesced": ("count", "higher"),
    "serving.scheduler.shed": ("count", "lower"),
    "api.app.handle_us": ("us", "lower"),
    "api.async_server.roundtrip_us": ("us", "lower"),
    "unattributed_share": ("ratio", "lower"),
    "trace_overhead_pct": ("%", "lower"),
}
#: Counts that must repeat exactly for a fixed seed.
EXACT = (
    "heron.simulation.samples_emitted",
    "api.ingest.bytes_per_sample",
    "api.client.batch_flushes",
    "durability.wal.fsyncs",
    "durability.wal.bytes_per_sample",
    "durability.wal.segments",
    "durability.store.replayed_records",
    "durability.checkpoint.bytes",
    "timeseries.store.series",
    "timeseries.store.samples",
    "sweep.engine.artifact_hits",
    "sweep.engine.artifact_misses",
    "serving.cache.hit_ratio",
    "serving.cache.evictions",
    "serving.singleflight.coalesced",
    "serving.scheduler.shed",
)


# ----------------------------------------------------------------------
# Mirror pass
# ----------------------------------------------------------------------
@dataclass
class Mirror:
    """What one mirror pass produced (besides the tracer's spans)."""

    wall_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    store: DurableMetricsStore | None = None
    tracker: TopologyTracker | None = None
    feed: inputs.Deployment | None = None
    targets: list[inputs.Deployment] = field(default_factory=list)
    history: inputs.FeedStore | None = None


def _wrap_store(store: DurableMetricsStore, tracer) -> None:
    """Record the store's and its WAL's calls as child spans."""
    store.apply_sample_batch = tracer.wrap(
        "timeseries.store.apply_sample_batch", store.apply_sample_batch
    )
    store.wal.append_bodies = tracer.wrap(
        "durability.wal.append_bodies", store.wal.append_bodies
    )
    store.wal.flush = tracer.wrap("durability.wal.flush", store.wal.flush)
    for method in ("aggregate", "aggregate_complete", "group_by"):
        setattr(store, method, tracer.wrap(
            "timeseries.store.aggregate", getattr(store, method)
        ))


def _handle(app: CaladriusApp, request: Request) -> tuple[int, dict[str, Any]]:
    """One model request through ``CaladriusApp.handle``, no socket."""
    if request.kind == "predict":
        return app.handle(
            "POST", f"/model/topology/heron/{request.topology}",
            {"horizon_minutes": "60"},
            {
                "source_rate": request.source_rate,
                "parallelisms": dict(request.parallelisms),
            },
        )
    if request.kind == "sweep":
        return app.handle(
            "POST", f"/model/plan_sweep/heron/{request.topology}",
            {"top_k": "8"},
            {
                "source_rate": request.source_rate,
                "plans": [dict(plan) for plan in request.plans],
            },
        )
    return app.handle(
        "GET", f"/model/traffic/heron/{request.topology}",
        {"horizon_minutes": str(request.horizon_minutes), "model": "prophet"},
    )


def mirror_pass(
    workload: Workload, seed: int, tracer, data_dir: Path, meter: SpeedMeter,
) -> Mirror:
    """One round of the pipeline, in-process (see the module docstring).

    ``meter`` samples the machine speed between operations, never inside
    a span.
    """
    out = Mirror()
    name = workload.name
    op = 0

    def next_op() -> None:
        nonlocal op
        meter.tick()
        tracer.operation(name, op)
        op += 1

    # -- set-up: inputs, and the preload the child would do -------------
    next_op()
    with tracer.span("workloads.generator.generate"):
        feed = inputs.build_deployment(workloads.feed_spec(workload, seed))
        corpus = [
            inputs.build_deployment(spec)
            for spec in workloads.corpus(workload, seed)
        ]
    targets = corpus or [feed]
    store = DurableMetricsStore(data_dir, fsync=inputs.FSYNC)
    tracker = TopologyTracker()
    tracker.register(feed.topology, feed.packing)
    for deployment in corpus:
        tracker.register(deployment.topology, deployment.packing)
        inputs.ingest_entries(
            store,
            inputs.simulate_history(
                deployment, seed, workload.corpus_minutes
            ).entries(),
        )
    if workload.feed_preload_minutes:
        # The head of the feed's own history, as the child preloads it.
        inputs.ingest_entries(
            store,
            inputs.simulate_history(
                feed, seed, workload.feed_preload_minutes
            ).entries(),
        )
    preloaded_fsyncs = store.wal.fsyncs
    _wrap_store(store, tracer)

    began = time.perf_counter()
    # -- simulate --------------------------------------------------------
    next_op()
    history = inputs.FeedStore()
    with tracer.span("heron.simulation.construct"):
        simulation = inputs.new_simulation(feed, history, seed)
    head = e2e.feed_head_minutes(workload)
    schedule = inputs.level_schedule(head + workload.feed_minutes)
    with tracer.span("heron.simulation.warmup"):
        inputs.run_levels(feed, simulation, schedule[:head])
    for level in schedule[head:]:
        meter.tick()
        with tracer.span("heron.simulation.run"):
            inputs.run_levels(feed, simulation, [level])
    with tracer.span("heron.simulation.construct"):
        small = e2e.word_count_simulation(inputs.sim_seed(seed, "word-count"))
    with tracer.span("heron.simulation.warmup"):
        small.run(inputs.SIM_WARMUP_MINUTES)
    for _ in range(max(1, workload.small_sim_minutes // e2e.SMALL_SIM_CHUNK)):
        meter.tick()
        with tracer.span("heron.simulation.run_small"):
            small.run(e2e.SMALL_SIM_CHUNK)

    # -- ingest ----------------------------------------------------------
    entries = history.entries(*e2e.fed_minutes(workload))
    probe_ts = 0

    def probe_write(topology: str) -> None:
        nonlocal probe_ts
        probe_ts += 60
        with tracer.span("durability.store.write"):
            store.write(
                e2e.PROBE_METRIC, probe_ts, float(probe_ts),
                {"topology": topology, "lane": "probe"},
            )

    def ingest(chunk: list[inputs.Entry]) -> None:
        next_op()
        with tracer.span("api.ingest.encode_frames"):
            raw = encode_frames(chunk)
        with tracer.span("api.ingest.decode_frames"):
            frames = decode_frames(raw)
        with tracer.span("durability.store.ingest_frames"):
            result = store.ingest_frames(frames)
        out.counts["wire_bytes"] = out.counts.get("wire_bytes", 0) + len(raw)
        out.counts["acked"] = out.counts.get("acked", 0) + result["acked"]

    if workload.tick_ms:
        # The open-loop round in sequence: each minute lands, then the
        # reader's share of requests finds its cache invalidated.
        cycle = [
            workloads.prediction(feed, index)
            for index in range(workloads.READER_CYCLE)
        ]
        position = 0
        app = CaladriusApp(load_config({}), tracker, store)
        _wrap_app(app, tracer)
        try:
            for minute in inputs.by_minute(entries):
                for start in range(0, len(minute), inputs.BATCH_FRAMES):
                    ingest(minute[start:start + inputs.BATCH_FRAMES])
                for _ in range(workloads.TICK_WRITES):
                    probe_write(feed.name)
                for _ in range(workloads.MIRROR_READS_PER_TICK):
                    next_op()
                    with tracer.span("api.app.handle"):
                        _handle(app, cycle[position % len(cycle)])
                    position += 1
        finally:
            _retire_app(app, out.counts)
    else:
        for start in range(0, len(entries), inputs.BATCH_FRAMES):
            ingest(entries[start:start + inputs.BATCH_FRAMES])
        for _ in range(workload.probe_writes):
            probe_write(targets[0].name)
    out.counts["fsyncs"] = store.wal.fsyncs - preloaded_fsyncs
    out.counts["sent"] = len(entries)

    # -- crash + recover -------------------------------------------------
    store.close()
    segments = sorted((data_dir / "wal").glob("wal-*.log"))
    out.counts["wal_segments"] = len(segments)
    out.counts["wal_bytes"] = sum(path.stat().st_size for path in segments)
    next_op()
    with tracer.span("durability.store.recover"):
        store = DurableMetricsStore(data_dir, fsync=inputs.FSYNC)
    out.counts["replayed_records"] = store.recovery.replayed_records
    _wrap_store(store, tracer)
    written_before_crash = probe_ts

    # -- query -----------------------------------------------------------
    app = CaladriusApp(load_config({}), tracker, store)
    _wrap_app(app, tracer)
    try:
        priming, mix = workloads.query_plan(workload, targets, seed)
        for request in priming + mix:
            next_op()
            if request.invalidate:
                probe_write(request.topology)
            with tracer.span("api.app.handle"):
                status, payload = _handle(app, request)
            if status != 200:
                raise RuntimeError(
                    f"mirror request {request.key} answered {status}: {payload}"
                )
    finally:
        _retire_app(app, out.counts)
    out.counts["hit_ratio"] = out.counts["hits"] / out.counts["requests"]
    out.wall_s = time.perf_counter() - began

    out.counts["series"] = len(store)
    # Everything recovery replayed plus the writes made since.
    out.counts["samples"] = (
        out.counts["replayed_records"] + (probe_ts - written_before_crash) // 60
    )
    out.counts["samples_emitted"] = history.sample_count()
    out.store, out.tracker = store, tracker
    out.feed, out.targets, out.history = feed, targets, history
    return out


def _retire_app(app: CaladriusApp, counts: dict[str, float]) -> None:
    """Add an app's serving counters to ``counts`` and shut it down.

    A crash loses the serving layer's state, so a round that serves on
    both sides of it (the open-loop workload) sums two apps' counters.
    """
    serving = app.serving.stats()
    sweeps = app.sweep_engine.stats()
    for key, value in (
        ("requests", serving["requests"]),
        ("hits", serving["hits"]),
        ("evictions", serving["cache"]["evictions"]),
        ("coalesced", serving["coalesced"]),
        ("shed", serving["shed"]),
        ("artifact_hits", sweeps["artifact_hits"]),
        ("artifact_misses", sweeps["artifact_misses"]),
    ):
        counts[key] = counts.get(key, 0) + value
    app.shutdown()


def _wrap_app(app: CaladriusApp, tracer) -> None:
    serving = app.serving
    serving.execute = tracer.wrap("serving.layer.execute", serving.execute)
    serving.cache.get = tracer.wrap("serving.cache.get", serving.cache.get)
    serving.cache.put = tracer.wrap("serving.cache.put", serving.cache.put)
    app.sweep_engine.sweep = tracer.wrap(
        "sweep.engine.sweep", app.sweep_engine.sweep
    )


# ----------------------------------------------------------------------
# Probe pass
# ----------------------------------------------------------------------
def probe_pass(
    workload: Workload, seed: int, tracer: Tracer, mirror: Mirror, work_dir: Path
) -> dict[str, float]:
    """Direct calls into the layers the mirror pass cannot split."""
    store, tracker = mirror.store, mirror.tracker
    feed, history = mirror.feed, mirror.history
    target = mirror.targets[0]
    tracked = tracker.get(target.name)
    values: dict[str, float] = {}
    tracer.operation(workload.name + ".probe", 0)

    # The simulator's minute flush, straight into a fresh store.
    ids, minutes = history.series_ids, history.minutes
    scratch = MetricsStore()
    first_ts, first_values = minutes[0]
    for (name, tags), value in zip(ids, first_values):
        scratch.write(name, first_ts, value, tags)
    batch = scratch.make_minute_batch(
        [MetricKey.of(name, tags) for name, tags in ids]
    )
    for timestamp, minute in minutes[1:]:
        with tracer.span("timeseries.store.append_minute_batch"):
            scratch.append_minute_batch(batch, timestamp, minute, feed.name)

    # What BatchWriter makes of the fed samples (flush count only).
    class _Sink:
        def __init__(self) -> None:
            self.flushes = 0

        def write_batch_raw(self, raw: bytes, epoch: int | None = None):
            self.flushes += 1

    sink = _Sink()
    with BatchWriter(sink, max_frames=inputs.BATCH_FRAMES) as writer:
        for name, timestamp, value, tags in history.entries(
            *e2e.fed_minutes(workload)
        ):
            writer.add(name, timestamp, value, tags)
    values["api.client.batch_flushes"] = sink.flushes

    # The per-sample write path under each flush policy, and without one.
    for policy in ("always", "interval", "never"):
        with DurableMetricsStore(work_dir / f"write-{policy}", fsync=policy) as durable:
            for index in range(PROBE_REPEATS):
                with tracer.span(f"durability.store.write.{policy}"):
                    durable.write("probe", 60 * index, float(index), {"lane": policy})
    plain = MetricsStore()
    for index in range(PROBE_REPEATS):
        with tracer.span("timeseries.store.write"):
            plain.write("probe", 60 * index, float(index), {"lane": "memory"})

    # WAL replay on its own, then a checkpoint of the recovered store.
    with tracer.span("durability.wal.replay"):
        replayed = sum(1 for _ in store.wal.replay())
    values["replayed_by_probe"] = replayed
    checkpointer = CheckpointManager(store, tracker)
    with tracer.span("durability.checkpoint.checkpoint"):
        checkpointer.checkpoint()
    values["durability.checkpoint.bytes"] = checkpointer.path.stat().st_size

    # Model tier, on the first query target.
    spout = tracked.topology.spouts()[0].name
    bolt = tracked.topology.bolts()[0].name
    rate = target.workload.base_rate_tpm * 0.75
    for _ in range(MODEL_REPEATS):
        with tracer.span("core.performance_models.calibrate_topology"):
            model, fits = calibrate_topology(tracked, store)
        with tracer.span("core.performance_models.evaluate_throughput"):
            evaluate_throughput(target.name, model, fits, rate)
        with tracer.span("graph.topology_graph.source_sink_paths"):
            source_sink_paths(tracked.topology)
        observed = component_observations(store, target.name, bolt, spout)
        with tracer.span("core.calibration.fit_piecewise_linear"):
            fit_piecewise_linear(observed["source"], observed["output"])
        series = store.aggregate(
            MetricNames.SOURCE_COUNT,
            {"topology": target.name, "component": spout},
        )
        forecaster = ProphetLite()
        with tracer.span("forecasting.prophet_lite.fit"):
            forecaster.fit(series)
        with tracer.span("forecasting.prophet_lite.predict"):
            forecaster.forecast(30, step_seconds=60)
        with tracer.span("sweep.artifact.build"):
            artifact = CalibrationArtifact.build(tracked, store)
        plans = [
            artifact.validate_plan(dict(plan))
            for plan in workloads.sweep_plans(target)
        ]
        with tracer.span("sweep.kernel.evaluate_plans"):
            predictions = evaluate_plans(artifact, rate, plans)
            estimate_plan_cpu(artifact, predictions)
    values["sweep_plans"] = len(plans)

    # Simulator validation of the sweep's best plans, on a process pool.
    ranked = sorted(
        zip(plans, predictions), key=lambda item: -item[1].output_rate
    )[:VALIDATE_TOP]
    spec = ValidationSpec(
        topology=tracked.topology,
        logic=target.workload.logic,
        source_rates_tpm={
            s.name: rate / len(tracked.topology.spouts())
            for s in tracked.topology.spouts()
        },
        minutes=3,
        base_seed=seed,
    )
    with tracer.span("sweep.pool.validate_plans"):
        validated = validate_plans(
            spec, [plan for plan, _ in ranked], workers=VALIDATE_WORKERS
        )
    values["validated_plans"] = len(validated)

    # Serving tier: the cache key, the cache, a warm request, the wire.
    params = {
        "horizon_minutes": 60, "source_rate": rate, "parallelisms": None,
        "traffic_model": None,
    }
    revision = tracker.revision_of(target.name)
    digest = store.data_version(target.name)
    for _ in range(PROBE_REPEATS):
        with tracer.span("serving.fingerprint.key"):
            RequestDescriptor.of(
                "performance", target.name, None, params
            ).cache_key(revision, digest)

    app = CaladriusApp(load_config({}), tracker, store)
    try:
        warm = workloads.prediction(target, 0)
        status, payload = _handle(app, warm)
        if status != 200:
            raise RuntimeError(f"probe request answered {status}: {payload}")
        for _ in range(PROBE_REPEATS):
            with tracer.span("api.app.handle.warm"):
                _handle(app, warm)
        with AsyncCaladriusServer(app, port=0) as server:
            with CaladriusClient(server.host, server.port, retries=0) as client:
                client.healthz()
                for _ in range(PROBE_REPEATS):
                    with tracer.span("api.async_server.roundtrip"):
                        client.healthz()
    finally:
        app.shutdown()
    return values


# ----------------------------------------------------------------------
# The traced run of one workload
# ----------------------------------------------------------------------
def _mean_us(tracer: Tracer, name: str) -> float:
    return statistics.fmean(tracer.durations(name)) * 1e6


def _outermost(tracer: Tracer, name: str) -> list[float]:
    """Durations of spans called ``name`` not nested in a same-named one."""
    by_id = tracer.spans
    return [
        span.duration for span in by_id
        if span.name == name
        and (span.parent is None or by_id[span.parent].name != name)
    ]


def _executes(tracer: Tracer) -> tuple[list[float], list[float]]:
    """``serving.layer.execute`` durations split into (hits, misses): a
    miss is an execute that went on to ``put`` a result."""
    putters = {
        span.parent for span in tracer.spans if span.name == "serving.cache.put"
    }
    hits, misses = [], []
    for span in tracer.spans:
        if span.name == "serving.layer.execute":
            (misses if span.id in putters else hits).append(span.duration)
    return hits, misses


def trace_workload(
    workload: Workload, seed: int, out_dir: Path | None
) -> e2e.WorkloadResult:
    """Per-layer metrics of one workload (see the module docstring)."""
    TMP_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=TMP_ROOT))
    try:
        outside = e2e.run_round(workload, seed, model_checks=False)
        # The three passes run minutes apart on a machine whose speed
        # drifts, so each is scaled by kernel samples taken around it.
        meter = SpeedMeter()

        def at_reference_speed(one_pass):
            meter.sample(BRACKET)
            began = time.perf_counter()
            out = one_pass()
            factor_from = (began, time.perf_counter())
            meter.sample(BRACKET)
            return out, meter.factor(*factor_from)

        untraced, untraced_speed = at_reference_speed(lambda: mirror_pass(
            workload, seed, NullTracer(), work_dir / "untraced", meter
        ))
        untraced.store.close()
        tracer = Tracer()
        mirror, mirror_speed = at_reference_speed(lambda: mirror_pass(
            workload, seed, tracer, work_dir / "traced", meter
        ))
        layer_s = mirror_speed * sum(
            span.duration for span in tracer.spans
            if span.parent is None and span.name != "workloads.generator.generate"
        )
        probes = probe_pass(workload, seed, tracer, mirror, work_dir)
        mirror.store.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    totals = tracer.totals()
    counts = mirror.counts
    sent = counts["sent"]

    def per_sample_us(name: str) -> float:
        return totals[name]["total"] / sent * 1e6

    hits, misses = _executes(tracer)
    cache_gets = tracer.durations("serving.cache.get")
    cache_puts = tracer.durations("serving.cache.put")
    minutes = len(mirror.history.minutes) - 1
    values = {
        "workloads.generator.generate_s": totals["workloads.generator.generate"]["total"],
        "heron.simulation.construct_s": tracer.durations("heron.simulation.construct")[0],
        "heron.simulation.run_s_per_sim_min": statistics.median(
            tracer.durations("heron.simulation.run")
        ),
        "heron.simulation.run_s_per_sim_min_small": statistics.median(
            tracer.durations("heron.simulation.run_small")
        ) / e2e.SMALL_SIM_CHUNK,
        "heron.simulation.samples_emitted": counts["samples_emitted"],
        "timeseries.store.append_minute_batch_us_per_sample": (
            totals["timeseries.store.append_minute_batch"]["total"]
            / (minutes * len(mirror.history.series_ids)) * 1e6
        ),
        "api.ingest.encode_us_per_sample": per_sample_us("api.ingest.encode_frames"),
        "api.ingest.decode_us_per_sample": per_sample_us("api.ingest.decode_frames"),
        "api.ingest.bytes_per_sample": counts["wire_bytes"] / sent,
        "api.client.batch_flushes": probes["api.client.batch_flushes"],
        "durability.store.ingest_frames_us_per_sample": per_sample_us(
            "durability.store.ingest_frames"
        ),
        "durability.wal.append_bodies_us_per_sample": per_sample_us(
            "durability.wal.append_bodies"
        ),
        "durability.wal.fsync_ms_p50": statistics.median(
            tracer.durations("durability.wal.flush")
        ) * 1e3,
        "durability.wal.fsyncs": counts["fsyncs"],
        "durability.wal.bytes_per_sample": (
            counts["wal_bytes"] / counts["replayed_records"]
        ),
        "durability.wal.segments": counts["wal_segments"],
        "timeseries.store.apply_sample_batch_us_per_sample": per_sample_us(
            "timeseries.store.apply_sample_batch"
        ),
        "durability.store.write_us.always": _mean_us(tracer, "durability.store.write.always"),
        "durability.store.write_us.interval": _mean_us(tracer, "durability.store.write.interval"),
        "durability.store.write_us.never": _mean_us(tracer, "durability.store.write.never"),
        "timeseries.store.write_us": _mean_us(tracer, "timeseries.store.write"),
        "durability.store.recover_s": tracer.durations("durability.store.recover")[0],
        "durability.wal.replay_us_per_record": (
            tracer.durations("durability.wal.replay")[0]
            / probes["replayed_by_probe"] * 1e6
        ),
        "durability.store.replayed_records": counts["replayed_records"],
        "durability.checkpoint.checkpoint_s": tracer.durations(
            "durability.checkpoint.checkpoint"
        )[0],
        "durability.checkpoint.bytes": probes["durability.checkpoint.bytes"],
        "timeseries.store.aggregate_us": statistics.fmean(
            _outermost(tracer, "timeseries.store.aggregate")
        ) * 1e6,
        "timeseries.store.series": counts["series"],
        "timeseries.store.samples": counts["samples"],
        "core.performance_models.calibrate_topology_ms": _mean_us(
            tracer, "core.performance_models.calibrate_topology"
        ) / 1e3,
        "core.calibration.fit_piecewise_linear_us": _mean_us(
            tracer, "core.calibration.fit_piecewise_linear"
        ),
        "core.performance_models.evaluate_throughput_us": _mean_us(
            tracer, "core.performance_models.evaluate_throughput"
        ),
        "graph.topology_graph.source_sink_paths_us": _mean_us(
            tracer, "graph.topology_graph.source_sink_paths"
        ),
        "forecasting.prophet_lite.fit_ms": _mean_us(tracer, "forecasting.prophet_lite.fit") / 1e3,
        "forecasting.prophet_lite.predict_ms": _mean_us(
            tracer, "forecasting.prophet_lite.predict"
        ) / 1e3,
        "sweep.artifact.build_ms": _mean_us(tracer, "sweep.artifact.build") / 1e3,
        "sweep.kernel.evaluate_plans_us_per_plan": _mean_us(
            tracer, "sweep.kernel.evaluate_plans"
        ) / probes["sweep_plans"],
        "sweep.engine.artifact_hits": counts["artifact_hits"],
        "sweep.engine.artifact_misses": counts["artifact_misses"],
        "sweep.pool.validate_s_per_plan": (
            tracer.durations("sweep.pool.validate_plans")[0]
            / probes["validated_plans"]
        ),
        "serving.fingerprint.key_us": _mean_us(tracer, "serving.fingerprint.key"),
        "serving.cache.get_us": statistics.fmean(cache_gets) * 1e6,
        "serving.cache.put_us": statistics.fmean(cache_puts) * 1e6,
        "serving.cache.hit_ratio": counts["hit_ratio"],
        "serving.cache.evictions": counts["evictions"],
        # A workload with no hit (or no miss) reports the other kind's
        # count as zero time rather than inventing a figure.
        "serving.layer.execute_hit_us": statistics.fmean(hits) * 1e6 if hits else 0.0,
        "serving.layer.execute_miss_ms": statistics.fmean(misses) * 1e3 if misses else 0.0,
        "serving.singleflight.coalesced": counts["coalesced"],
        "serving.scheduler.shed": counts["shed"],
        "api.app.handle_us": _mean_us(tracer, "api.app.handle.warm"),
        "api.async_server.roundtrip_us": _mean_us(tracer, "api.async_server.roundtrip"),
        "unattributed_share": 1.0 - layer_s / outside.pipeline_wall_s(),
        "trace_overhead_pct": (
            mirror.wall_s * mirror_speed / (untraced.wall_s * untraced_speed) - 1.0
        ) * 100.0,
    }
    metrics = {
        name: {"value": float(values[name]), "unit": unit, "better": better,
               "exact": name in EXACT}
        for name, (unit, better) in PER_LAYER.items()
    }
    checks = [
        e2e.Check(
            "mirror_acked_equals_sent", counts["acked"] == sent,
            f"{int(counts['acked'])}/{int(sent)} samples acked in-process",
        ),
        e2e.Check(
            "mirror_recovered_everything",
            counts["samples"] == probes["replayed_by_probe"],
            f"store holds {int(counts['samples'])} samples, "
            f"the log replays {int(probes['replayed_by_probe'])}",
        ),
    ]
    checks += outside.checks
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(
            out_dir / f"trace_{workload.name}.json",
            {"workload": workload.name, "seed": seed,
             "layer_seconds": layer_s,
             "end_to_end_seconds": outside.pipeline_wall_s(),
             "totals": totals},
        )
    operations = {
        kind: {
            "attempted": outside.log.attempted[kind],
            "failed": outside.log.failed.get(kind, 0),
        }
        for kind in sorted(outside.log.attempted)
    }
    return e2e.WorkloadResult(
        workload.name, 1, metrics, operations,
        {**{k: float(v) for k, v in counts.items()},
         "untraced_mirror_s": untraced.wall_s, "traced_mirror_s": mirror.wall_s},
        checks,
    )
