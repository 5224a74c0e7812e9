"""Model quality beyond the paper's figures, one runner section each.

The paper states these claims without a figure; every function here
tests one on the simulated cluster at the scale ``quick`` selects and
returns records (:func:`repro.experiments.records.record`):

* :func:`forecast` — "a simple statistical model is not able to predict
  ... strongly seasonal traffic" (Section IV-A), scored by the
  rolling-origin protocol of :mod:`repro.forecasting.backtest`;
* :func:`traffic_modes` — per-instance traffic models are "slower but
  more accurate" than one aggregate model (Section IV-A);
* :func:`risk` — the dry-run verdict of Eq. 13-14 against a deployment;
* :func:`latency` — the latency golden signal (Section III-B1);
* :func:`autoscaler` — Dhalion-style rounds vs one model-guided shot
  (the Section V framing);
* :func:`faults` — calibrating on a fault-degraded metrics window;
* :func:`matrix` — calibration over generated topologies and faults.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.autoscaler import ModelGuidedScaler, ReactiveScaler, SimulatedCluster
from repro.core.component_model import ComponentModel
from repro.core.instance_model import InstanceModel
from repro.core.latency_model import LatencyModel
from repro.core.performance_models import ThroughputPredictionModel
from repro.core.topology_model import TopologyModel
from repro.core.traffic_models import ProphetTrafficModel
from repro.errors import DegradedMetricsWarning
from repro.experiments.figures import ALPHA, SPLITTER_SP
from repro.experiments.records import record
from repro.experiments.sweeps import run_point
from repro.faults.plan import FaultEvent, FaultPlan
from repro.forecasting import ProphetLite, Seasonality, SummaryForecaster
from repro.forecasting.backtest import rolling_origin_backtest
from repro.heron.metrics import MetricNames
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.tracker import TopologyTracker
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.series import TimeSeries
from repro.timeseries.store import MetricsStore
from repro.workloads import run_matrix

__all__ = [
    "autoscaler",
    "faults",
    "forecast",
    "latency",
    "matrix",
    "risk",
    "traffic_modes",
]

M = 1e6
DAY = 144  # ten-minute samples per day

_SEASONAL = "a constant statistic cannot follow a seasonal profile"
_UNSEEN = (
    "the fault slows processing but leaves every series complete: "
    "calibration fits the slowed minutes and nothing warns"
)

#: One representative fault per class, placed mid-sweep, for the Splitter
#: 2 / Counter 4 deployment (container ids start at 1).
FAULTS: dict[str, tuple[FaultEvent, ...]] = {
    "healthy": (),
    "crash": (
        FaultEvent(at_seconds=240, kind="crash", component="splitter",
                   index=0, duration_seconds=120),
    ),
    "straggler": (
        FaultEvent(at_seconds=240, kind="straggler", component="counter",
                   index=1, duration_seconds=180, factor=0.4),
    ),
    "stmgr_stall": (
        FaultEvent(at_seconds=300, kind="stmgr_stall", container=1,
                   duration_seconds=60),
    ),
    "metric_dropout": (
        FaultEvent(at_seconds=240, kind="metric_dropout",
                   component="counter", duration_seconds=120),
    ),
}


def _deployed(
    seed: int, events: tuple[FaultEvent, ...] = ()
) -> ThroughputPredictionModel:
    """Word Count (Splitter 2, Counter 4) swept over 4..44 M tuples/min,
    two minutes a rate, calibrated from its own metrics."""
    topology, packing, logic = build_word_count(
        WordCountParams(splitter_parallelism=2, counter_parallelism=4)
    )
    store = MetricsStore()
    sim = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=seed),
        faults=FaultPlan(events=events) if events else None,
    )
    for rate in np.arange(4 * M, 44 * M + 1, 8 * M):
        sim.set_source_rate("sentence-spout", float(rate))
        sim.run(2)
    tracker = TopologyTracker()
    tracker.register(topology, packing)
    return ThroughputPredictionModel(tracker, store)


def forecast(quick: bool) -> list[dict]:
    """ProphetLite vs a trailing-mean summary, one-day horizon, on two
    weeks of seasonal (daily + weekly + trend) and of flat traffic.
    The traces are small enough that ``quick`` changes nothing."""
    t = np.arange(14 * DAY) * 600
    day = 86_400
    seasonal = (
        5e6
        + 2e6 * np.sin(2 * np.pi * t / day)
        + 0.6e6 * np.sin(2 * np.pi * t / (7 * day))
        + 1.5 * t / 60
        + np.random.default_rng(0).normal(0, 0.2e6, t.size)
    )
    traces = {
        "seasonal": np.maximum(0, seasonal),
        "flat": 5e6 + np.random.default_rng(1).normal(0, 0.2e6, t.size),
    }
    models = {
        "prophet-lite": lambda: ProphetLite(
            seasonalities=[Seasonality.daily(4), Seasonality.weekly(2)],
            n_changepoints=8,
        ),
        "stats-summary": lambda: SummaryForecaster("mean", window=DAY),
    }
    records = []
    for traffic, values in traces.items():
        for name, factory in models.items():
            result = rolling_origin_backtest(
                factory, TimeSeries(t, values), initial_train=7 * DAY,
                horizon=DAY, stride=DAY,
            )
            config = f"{traffic} traffic, {name}"
            seasonal = traffic == "seasonal" and name == "stats-summary"
            reason = _SEASONAL if seasonal else None
            records += [
                record("forecast", config, "smape", result.smape, reason=reason),
                record("forecast", config, "mape", result.mape, reason=reason),
                # The band is a 90% one: the distance from 0.9 is its error.
                record("forecast", config, "coverage_gap",
                       abs(result.coverage - 0.9)),
            ]
    return records


def traffic_modes(quick: bool) -> list[dict]:
    """Aggregate vs per-instance traffic models on two spout instances
    whose 2-hour cycles cancel in the sum while one of them grows.

    Both should forecast the total; only per-instance attributes the
    growth, and it pays one forecaster fit per instance for it (the
    deterministic stand-in for "slower").
    """
    cycle = 120
    history = (3 if quick else 6) * cycle
    topology, packing, _ = build_word_count(WordCountParams(spout_parallelism=2))
    tracker = TopologyTracker()
    tracker.register(topology, packing)
    store = MetricsStore()
    rng = np.random.default_rng(0)
    truth: dict[int, list[float]] = {0: [], 1: []}
    for minute in range(history + cycle):
        wave = 4 * M * np.sin(2 * np.pi * minute / cycle)
        for index, value in enumerate(
            (6 * M + wave, 6 * M - wave + 8_000.0 * minute)
        ):
            truth[index].append(value)
            if minute < history:  # the last cycle is held out
                store.write(
                    MetricNames.SOURCE_COUNT, minute * 60,
                    max(0.0, value + rng.normal(0, 0.1 * M)),
                    {"topology": "word-count", "component": "sentence-spout",
                     "instance": f"sentence-spout_{index}", "container": "1"},
                )
    total = float(np.mean(np.add(truth[0], truth[1])[history:]))
    hot = float(np.mean(truth[1][history:]))
    fits = []

    def forecaster() -> ProphetLite:
        fits.append(1)
        return ProphetLite(
            seasonalities=[Seasonality("cycle", cycle * 60, 4)], n_changepoints=5
        )

    records = []
    for mode, per_instance in (("aggregate", False), ("per-instance", True)):
        fits.clear()
        prediction = ProphetTrafficModel(
            tracker, store, per_instance=per_instance, make_forecaster=forecaster
        ).predict("word-count", None, cycle)
        records += [
            record("traffic-modes", mode, "total_error",
                   abs(prediction.summary["mean"] - total) / total),
            record("traffic-modes", mode, "forecaster_fits", len(fits),
                   unit="count"),
        ]
        if per_instance:
            mean = prediction.per_instance["sentence-spout_1"]["mean"]
            records.append(record("traffic-modes", mode, "hot_instance_error",
                                  abs(mean - hot) / hot))
    return records


def risk(quick: bool) -> list[dict]:
    """Calibrate on one deployment, dry-run four Splitter parallelisms at
    26 M tuples/min, and check each risk verdict against a simulation of
    the proposed deployment (backpressured: over 30 s a minute)."""
    model = _deployed(seed=21)
    minutes = 1 if quick else 2
    records = []
    for p in (2, 3, 4, 6):
        prediction = model.predict(
            "word-count", source_rate=26 * M, parallelisms={"splitter": p}
        )
        point = run_point(
            WordCountParams(splitter_parallelism=p, counter_parallelism=4),
            26 * M, seed=100 + p,
            warmup_minutes=minutes, measure_minutes=minutes,
        )
        correct = (prediction.backpressure_risk == "high") == (
            point.backpressure_ms > 30_000
        )
        records.append(record("risk", f"splitter p={p}", "verdict_correct",
                              correct, unit="bool", better="higher"))
    return records


def latency(quick: bool) -> list[dict]:
    """The watermark-bound latency model vs the simulator's queue latency
    for the Fig. 4 deployment, scored where the Splitter is saturated
    (below SP both read ~0 ms)."""
    params = WordCountParams(splitter_parallelism=1, counter_parallelism=3)
    topology, _, _ = build_word_count(params)
    model = LatencyModel(
        TopologyModel(topology, {
            "splitter": ComponentModel(
                "splitter", InstanceModel({"default": ALPHA}, SPLITTER_SP), 1
            ),
            "counter": ComponentModel("counter", InstanceModel({}, 70 * M), 3),
        }),
        input_tuple_bytes={"splitter": 60.0, "counter": 16.0},
    )
    rates = np.array([4, 8, 10, 12, 14, 18]) * M
    if quick:
        rates = rates[::2]
    profile = model.latency_profile(["sentence-spout", "splitter", "counter"], rates)
    records = []
    for i, (rate, predicted) in enumerate(profile):
        topology, packing, logic = build_word_count(params)
        store = MetricsStore()
        sim = HeronSimulation(
            topology, packing, logic, store, SimulationConfig(seed=80 + i)
        )
        sim.set_source_rate("sentence-spout", rate)
        sim.run(3 if quick else 4)
        measured = store.aggregate(
            MetricNames.QUEUE_LATENCY_MS, {"component": "splitter"}
        ).between(120, 2**62).mean()
        if measured > 100.0:
            records.append(record("latency", f"source={rate / M:g}M",
                                  "latency_error",
                                  abs(predicted - measured) / measured))
    return records


def autoscaler(quick: bool) -> list[dict]:
    """Both scalers start from Splitter 2 / Counter 2 under 40 M
    tuples/min and must reach 95% of the words that demand yields."""
    demand = 40 * M
    observe = 2 if quick else 3

    def undersized(seed: int) -> SimulatedCluster:
        cluster = SimulatedCluster(
            word_count_params=WordCountParams(
                splitter_parallelism=2, counter_parallelism=2
            ),
            config=SimulationConfig(seed=seed),
        )
        for rate in np.arange(8 * M, demand + 1, 8 * M):
            cluster.set_source_rate("sentence-spout", float(rate))
            cluster.run(2)
        return cluster

    slo = {"slo_output_tpm": 0.95 * ALPHA * demand, "observe_minutes": observe}
    traces = {
        "reactive": ReactiveScaler(undersized(61), **slo).run(),
        "model-guided": ModelGuidedScaler(undersized(62), **slo).run(demand),
    }
    records = []
    for strategy, trace in traces.items():
        records += [
            record("autoscaler", strategy, "converged", trace.converged,
                   unit="bool", better="higher"),
            record("autoscaler", strategy, "deployments", trace.deployments,
                   unit="count"),
            record("autoscaler", strategy, "rounds", len(trace.rounds),
                   unit="count"),
        ]
    return records


def faults(quick: bool) -> list[dict]:
    """Calibrate on a sweep with one fault of each class injected and
    predict the output at 16 M tuples/min (the linear regime of the
    Splitter 2 deployment) against a clean run of the same traffic.

    A faulted window should warn (``DegradedMetricsWarning``); the
    healthy one should not.
    """
    minutes = 1 if quick else 2
    truth = run_point(
        WordCountParams(splitter_parallelism=2, counter_parallelism=4),
        16 * M, seed=77, warmup_minutes=minutes, measure_minutes=minutes,
    ).component_input["counter"]
    records = []
    for scenario, events in FAULTS.items():
        model = _deployed(seed=31, events=events)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prediction = model.predict("word-count", source_rate=16 * M)
        warned = any(
            issubclass(w.category, DegradedMetricsWarning) for w in caught
        )
        reason = _UNSEEN if scenario in ("straggler", "stmgr_stall") else None
        records += [
            record("faults", scenario, "prediction_error",
                   abs(prediction.output_rate - truth) / truth, reason=reason),
            record("faults", scenario, "warned", warned, unit="bool",
                   better="lower" if scenario == "healthy" else "higher",
                   reason=reason),
        ]
    return records


def matrix(quick: bool) -> list[dict]:
    """The scenario matrix (``caladrius matrix --seed 7``; its first 12
    cells when ``quick``): the worst per-bolt arrival and CPU MAPE per
    fault kind, and how many cells missed their fault kind's gate."""
    report = run_matrix(seed=7, cells=12 if quick else None)
    worst: dict[str, list[float]] = {}
    for cell in report["cells"]:
        if not cell["error"]:
            pair = worst.setdefault(cell["fault"], [0.0, 0.0])
            pair[0] = max(pair[0], cell["arrival_mape"])
            pair[1] = max(pair[1], cell["cpu_mape"])
    records = [record("matrix", "all cells", "failed_cells",
                      report["summary"]["failed"], unit="count")]
    for fault, (arrival, cpu) in sorted(worst.items()):
        records += [
            record("matrix", fault, "worst_arrival_mape", arrival),
            record("matrix", fault, "worst_cpu_mape", cpu),
        ]
    return records
