"""Shared sweep runner for the evaluation experiments.

A *point* is one steady-state observation of the Word Count topology at
one configured source rate: a fresh simulation is built (the paper
restarts the topology per observation), run through a warmup that is
discarded, and then measured for a number of minutes whose per-minute
metrics are averaged.  A *sweep* repeats points over a rate grid and a
number of repetitions, which is what the paper's 90%-confidence-band
figures are made of.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import SimulationError
from repro.heron.metrics import MetricNames
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.store import MetricsStore

__all__ = ["ObservationPoint", "SweepResult", "run_point", "run_sweep"]


@dataclass(frozen=True)
class ObservationPoint:
    """One steady-state measurement at one source rate.

    Rates are tuples per minute, averaged over the measured minutes.
    ``component_input`` follows the paper's Fig. 4/5 semantics: the
    *processed-count* metric ("the Splitter processed-count and
    emit-count metrics ... represent the instance's input and output
    rates"); ``component_received`` is the raw delivered-tuple counter.
    ``instance_input``/``instance_cpu`` give per-instance means, keyed by
    component, in component-index order (needed by the CPU model, which
    is fitted per instance).
    """

    source_tpm: float
    run: int
    component_input: dict[str, float]
    component_received: dict[str, float]
    component_output: dict[str, float]
    component_cpu: dict[str, float]
    instance_input: dict[str, np.ndarray]
    instance_cpu: dict[str, np.ndarray]
    backpressure_ms: float


@dataclass
class SweepResult:
    """All observation points of one sweep, with aggregation helpers."""

    points: list[ObservationPoint] = field(default_factory=list)

    def rates(self) -> np.ndarray:
        """The distinct configured source rates, ascending."""
        return np.unique([p.source_tpm for p in self.points])

    def _metric(self, point: ObservationPoint, component: str, metric: str) -> float:
        table = {
            "input": point.component_input,
            "received": point.component_received,
            "output": point.component_output,
            "cpu": point.component_cpu,
        }
        if metric == "backpressure":
            return point.backpressure_ms
        return table[metric].get(component, float("nan"))

    def series(
        self, component: str, metric: str, level: float = 0.90
    ) -> dict[str, np.ndarray]:
        """Per-rate mean and quantile band over repetitions.

        ``metric`` is ``"input"`` (processed-count), ``"received"``,
        ``"output"``, ``"cpu"`` or ``"backpressure"``.  Returns arrays
        ``rate``, ``mean``, ``low``, ``high`` — the series the paper
        plots with 90% bands.
        """
        alpha = (1.0 - level) / 2.0
        rates = self.rates()
        mean, low, high = [], [], []
        for rate in rates:
            values = np.array(
                [
                    self._metric(p, component, metric)
                    for p in self.points
                    if p.source_tpm == rate
                ]
            )
            mean.append(float(np.mean(values)))
            low.append(float(np.quantile(values, alpha)))
            high.append(float(np.quantile(values, 1.0 - alpha)))
        return {
            "rate": rates,
            "mean": np.asarray(mean),
            "low": np.asarray(low),
            "high": np.asarray(high),
        }

    def observations(
        self, component: str, metric: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat (source rate, value) observation pairs for calibration."""
        x = np.array([p.source_tpm for p in self.points])
        y = np.array([self._metric(p, component, metric) for p in self.points])
        return x, y

    def instance_observations(
        self, component: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat per-instance (input rate, cpu cores) pairs."""
        inputs, cpus = [], []
        for point in self.points:
            inputs.extend(point.instance_input[component])
            cpus.extend(point.instance_cpu[component])
        return np.asarray(inputs), np.asarray(cpus)


def run_point(
    params: WordCountParams,
    source_tpm: float,
    seed: int,
    warmup_minutes: int = 2,
    measure_minutes: int = 2,
    config: SimulationConfig | None = None,
    run: int = 0,
) -> ObservationPoint:
    """One steady-state observation of the Word Count topology."""
    if warmup_minutes < 1 or measure_minutes < 1:
        raise SimulationError("warmup and measure minutes must be >= 1")
    topology, packing, logic = build_word_count(params)
    store = MetricsStore()
    sim = HeronSimulation(
        topology,
        packing,
        logic,
        store,
        replace(config or SimulationConfig(), seed=seed),
    )
    sim.set_source_rate("sentence-spout", source_tpm)
    sim.run(warmup_minutes + measure_minutes)
    # One read of the point, as calibration and the health gate read a
    # topology: every mean below comes from this frame.
    frame = store.topology_frame(
        topology.name,
        (
            MetricNames.EXECUTE_COUNT,
            MetricNames.RECEIVED_COUNT,
            MetricNames.EMIT_COUNT,
            MetricNames.CPU_LOAD,
            MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS,
        ),
        start=warmup_minutes * 60,
    )

    def mean(metric: str, component: str | None) -> float:
        return frame.group(metric, component).complete()[0].mean()

    def instance_means(metric: str, component: str) -> np.ndarray:
        members = frame.group(metric, component).series()
        return np.asarray([series.mean() for series in members])

    component_input: dict[str, float] = {}
    component_received: dict[str, float] = {}
    component_output: dict[str, float] = {}
    component_cpu: dict[str, float] = {}
    instance_input: dict[str, np.ndarray] = {}
    instance_cpu: dict[str, np.ndarray] = {}
    for spec in topology.components.values():
        name = spec.name
        component_input[name] = mean(MetricNames.EXECUTE_COUNT, name)
        component_received[name] = (
            component_input[name]
            if spec.is_spout
            else mean(MetricNames.RECEIVED_COUNT, name)
        )
        component_output[name] = mean(MetricNames.EMIT_COUNT, name)
        component_cpu[name] = mean(MetricNames.CPU_LOAD, name)
        instance_input[name] = instance_means(MetricNames.EXECUTE_COUNT, name)
        instance_cpu[name] = instance_means(MetricNames.CPU_LOAD, name)
    backpressure = mean(MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS, None)
    return ObservationPoint(
        source_tpm=source_tpm,
        run=run,
        component_input=component_input,
        component_received=component_received,
        component_output=component_output,
        component_cpu=component_cpu,
        instance_input=instance_input,
        instance_cpu=instance_cpu,
        backpressure_ms=backpressure,
    )


def run_sweep(
    params: WordCountParams,
    rates_tpm: Sequence[float],
    runs: int = 3,
    seed: int = 0,
    warmup_minutes: int = 2,
    measure_minutes: int = 2,
    config: SimulationConfig | None = None,
) -> SweepResult:
    """Observe the topology over a source-rate grid with repetitions.

    Each (rate, repetition) pair uses an independent seed, emulating the
    paper's "restarting the topology and observing its throughput
    multiple times".
    """
    if runs < 1:
        raise SimulationError("runs must be >= 1")
    result = SweepResult()
    for run in range(runs):
        for i, rate in enumerate(rates_tpm):
            point_seed = seed + run * 10_000 + i
            result.points.append(
                run_point(
                    params,
                    float(rate),
                    seed=point_seed,
                    warmup_minutes=warmup_minutes,
                    measure_minutes=measure_minutes,
                    config=config,
                    run=run,
                )
            )
    return result
