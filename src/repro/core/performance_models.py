"""Caladrius performance models (paper Fig. 2, "Topology Performance
Model Interface").

A performance model answers: *how will this topology perform under a
given traffic load and configuration?*  The two scenarios from the paper
(Section I) are both supported:

* **varying traffic, fixed configuration** — pass a source rate (or a
  traffic-model prediction) and the current parallelisms;
* **fixed traffic, different configuration** — pass proposed
  parallelisms (the dry-run ``heron update`` use case).

:func:`calibrate_topology` builds the chained model from observed
metrics: it walks the DAG in topological order, reconstructs each
component's *offered* rate (what would arrive absent backpressure —
spout source counters amplified through fitted upstream curves), and
fits the piecewise-linear curve of Section IV-B to every component.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.calibration import (
    PiecewiseLinearFit,
    calibrate_sink,
    fit_piecewise_linear,
    skip_degraded,
)
from repro.core.component_model import ComponentModel
from repro.core.cpu_model import CpuModel, fit_cpu_models
from repro.core.instance_model import InstanceModel
from repro.core.topology_model import (
    Evaluation,
    TopologyModel,
    grouping_input_shares,
)
from repro.core.traffic_models import TrafficPrediction
from repro.durability.deadline import check_deadline
from repro.errors import CalibrationError, MetricsError, ModelError
from repro.heron.metrics import MetricNames
from repro.heron.tracker import TopologyTracker, TrackedTopology
from repro.timeseries.store import MetricsStore

if TYPE_CHECKING:
    from repro.core.calibration_cache import CalibrationCache

__all__ = [
    "PerformancePrediction",
    "PerformanceModel",
    "ThroughputPredictionModel",
    "BackpressureEvaluationModel",
    "calibrate_topology",
    "grouping_input_shares",
    "evaluate_throughput",
]


@dataclass(frozen=True)
class PerformancePrediction:
    """Result of a performance-model run (JSON-friendly via as_dict)."""

    topology: str
    model: str
    source_rate: float
    parallelisms: dict[str, int]
    components: dict[str, dict[str, object]]
    output_rate: float
    saturation_source_rate: float
    backpressure_risk: str
    bottleneck: str | None
    paths: list[dict[str, object]] = field(default_factory=list)
    output_rate_stderr: float = 0.0

    @property
    def output_rate_interval(self) -> tuple[float, float]:
        """A ~90% interval on the predicted output rate.

        Calibration uncertainty compounds along the chained stages (the
        paper: "error has accumulated for the chained prediction
        steps"); the band is ±1.645 standard errors, floored at zero.
        """
        half = 1.6449 * self.output_rate_stderr
        return (max(0.0, self.output_rate - half), self.output_rate + half)

    def as_dict(self) -> dict[str, object]:
        """The API-tier response body."""
        return {
            "topology": self.topology,
            "model": self.model,
            "source_rate": self.source_rate,
            "parallelisms": self.parallelisms,
            "components": self.components,
            "output_rate": self.output_rate,
            "saturation_source_rate": self.saturation_source_rate,
            "backpressure_risk": self.backpressure_risk,
            "bottleneck": self.bottleneck,
            "paths": self.paths,
            "output_rate_stderr": self.output_rate_stderr,
            "output_rate_interval": list(self.output_rate_interval),
        }


# ----------------------------------------------------------------------
# Calibration over a whole topology
# ----------------------------------------------------------------------
def _chain_relative_stderr(
    evaluation: Evaluation, fits: Mapping[str, PiecewiseLinearFit]
) -> float:
    """Relative standard error of the worst path's chained output.

    Per stage: an unsaturated component contributes its slope's
    relative standard error; a saturated one the plateau's (residual
    std over the saturation throughput).  Independent stage errors
    compound in quadrature — the accumulation the paper observes in
    its chained CPU prediction.
    """
    worst = evaluation.worst
    total_sq = 0.0
    for name, saturated in zip(worst.path, worst.saturated):
        fit = fits.get(name)
        if fit is None:
            continue
        if saturated and fit.saturated:
            denominator = fit.saturation_throughput
            rel = fit.residual_std / denominator if denominator > 0 else 0.0
        else:
            rel = fit.alpha_stderr / fit.alpha if fit.alpha > 0 else 0.0
        total_sq += rel * rel
    return math.sqrt(total_sq)


def _throughput(
    topology_name: str,
    evaluation: Evaluation,
    fits: Mapping[str, PiecewiseLinearFit],
    model_name: str,
) -> PerformancePrediction:
    """Eq. 12-13 for every path, and the whole-DAG output, of one pass."""
    share = evaluation.share
    # Path-level figures are in per-spout units; the topology-level
    # saturation rate scales back up by the spout count.
    worst = evaluation.worst
    saturates = not math.isinf(worst.saturation_source_rate)
    risk = worst.risk(share)
    output_rate = sum(
        evaluation.components[sink]["processed"] for sink in evaluation.sinks
    )
    rel_stderr = _chain_relative_stderr(evaluation, fits) if saturates else 0.0
    return PerformancePrediction(
        topology=topology_name,
        model=model_name,
        source_rate=evaluation.source_rate,
        parallelisms=evaluation.parallelisms,
        components=evaluation.components,
        output_rate=output_rate,
        saturation_source_rate=(
            worst.saturation_source_rate * evaluation.spouts
        ),
        backpressure_risk=risk.risk.value,
        bottleneck=risk.bottleneck,
        paths=[
            {
                "path": list(path.path),
                "output_rate": path.output_rate,
                "saturation_source_rate": path.saturation_source_rate,
                "bottleneck": path.bottleneck,
            }
            for path in evaluation.paths
        ],
        output_rate_stderr=output_rate * rel_stderr,
    )


def evaluate_throughput(
    topology_name: str,
    model: TopologyModel,
    fits: Mapping[str, PiecewiseLinearFit],
    rate: float,
    model_name: str = "throughput-prediction",
) -> PerformancePrediction:
    """Evaluate an already-calibrated model at one source rate.

    This is the evaluation half of
    :meth:`ThroughputPredictionModel.predict` with calibration factored
    out, so a calibrate-once / evaluate-many sweep can call it per plan
    (or validate a batch kernel against it) without touching metrics.
    """
    return _throughput(topology_name, model.evaluate(rate), fits, model_name)


def calibrate_topology(
    tracked: TrackedTopology,
    store: MetricsStore,
    warmup_minutes: int = 1,
    since_seconds: int | None = None,
    cpu_models: dict[str, CpuModel] | None = None,
) -> tuple[TopologyModel, dict[str, PiecewiseLinearFit]]:
    """Fit every bolt's piecewise-linear model from stored metrics.

    Walks the DAG in topological order maintaining each component's
    per-minute *offered* rate: spouts contribute their external
    ``source-count``; bolts forward ``alpha * min(offered, SP)`` of their
    fitted curve downstream.  Returns the chained
    :class:`~repro.core.topology_model.TopologyModel` plus the raw fit
    per bolt (keyed by component name).

    ``since_seconds`` restricts calibration to metrics at or after that
    timestamp — essential after a redeployment, when older minutes
    describe a different physical configuration.

    The store is read once (:meth:`MetricsStore.topology_frame`).  A
    caller that also wants the per-bolt CPU models passes a dictionary
    as ``cpu_models``: it is filled from that same read, so the two sets
    of fits describe the same minutes.
    """
    topology = tracked.topology
    names = [
        MetricNames.SOURCE_COUNT,
        MetricNames.RECEIVED_COUNT,
        MetricNames.STREAM_EMIT_COUNT,
    ]
    if cpu_models is not None:
        names.append(MetricNames.CPU_LOAD)
    frame = store.topology_frame(topology.name, names, start=since_seconds)

    def fetch(metric: str, component: str, stream: str | None = None):
        tags = {"topology": topology.name, "component": component}
        if stream is not None:
            tags["stream"] = stream
        return skip_degraded(
            metric, tags, *frame.group(metric, component, stream).complete()
        )

    offered: dict[str, np.ndarray | None] = {
        name: None for name in topology.components
    }
    models = {}
    fits: dict[str, PiecewiseLinearFit] = {}

    # Fetch every series first (skipping partially-reported minutes with
    # a DegradedMetricsWarning), then align all components on the
    # timestamps that every series kept.  After an instance crash or a
    # metric dropout different components are missing *different*
    # minutes, so positional alignment would silently pair unrelated
    # minutes together.
    fetched: dict[tuple[str, ...], object] = {}
    try:
        for spec in topology.topological_order():
            check_deadline()
            name = spec.name
            if spec.is_spout:
                fetched[("source", name)] = fetch(
                    MetricNames.SOURCE_COUNT, name
                )
                continue
            fetched[("received", name)] = fetch(
                MetricNames.RECEIVED_COUNT, name
            )
            for stream_name in sorted(
                {s.name for s in topology.outputs(name)}
            ):
                fetched[("emit", name, stream_name)] = fetch(
                    MetricNames.STREAM_EMIT_COUNT, name, stream_name
                )
    except MetricsError as exc:
        # A series that was never written at all (e.g. a dropout from
        # t=0) is the extreme of "no usable metric minutes".
        raise CalibrationError(
            f"no usable metric minutes for calibration: {exc}"
        ) from exc

    common: np.ndarray | None = None
    for series in fetched.values():
        ts = series.timestamps  # type: ignore[attr-defined]
        common = ts if common is None else np.intersect1d(common, ts)
    if common is None:
        common = np.asarray([], dtype=np.int64)
    common = common[warmup_minutes:]
    if common.shape[0] < 3:
        raise CalibrationError(
            f"only {common.shape[0]} usable metric minutes are shared by "
            "every component after the warmup (degraded windows are "
            "skipped); at least 3 are needed to calibrate"
        )

    def sel(key: tuple[str, ...]) -> np.ndarray:
        series = fetched[key]
        mask = np.isin(series.timestamps, common)  # type: ignore[attr-defined]
        return series.values[mask]  # type: ignore[attr-defined]

    def add_offered(name: str, values: np.ndarray) -> None:
        if offered[name] is None:
            offered[name] = values.copy()
        else:
            offered[name] = offered[name] + values

    for spec in topology.topological_order():
        check_deadline()
        name = spec.name
        if spec.is_spout:
            values = sel(("source", name))
            add_offered(name, values)
            # The evaluation spout is a pass-through (identity model) —
            # downstream sees the offered external rate.
            for stream in topology.outputs(name):
                add_offered(stream.destination, values)
            continue

        x = offered[name]
        if x is None:
            raise CalibrationError(f"bolt {name!r} received no offered rate")
        shares = grouping_input_shares(topology, name, spec.parallelism)
        outputs = topology.outputs(name)
        y_in = sel(("received", name))
        if not outputs:
            model, fit = calibrate_sink(
                name, x, y_in, spec.parallelism,
                None if shares is None else np.asarray(shares),
            )
            models[name] = model
            fits[name] = fit
            continue
        stream_names = sorted({s.name for s in outputs})
        per_stream_fits: dict[str, PiecewiseLinearFit] = {}
        for stream_name in stream_names:
            y_out = sel(("emit", name, stream_name))
            per_stream_fits[stream_name] = fit_piecewise_linear(x, y_out)
        # Streams share the input, so the component saturates at the
        # smallest fitted breakpoint; alphas come from each stream's fit.
        # A stream that emitted nothing fits alpha 0 at *any* breakpoint:
        # it is no evidence of saturation.
        sp_component = min(
            (f.saturation_point for f in per_stream_fits.values() if f.alpha > 0),
            default=math.inf,
        )
        if shares is None:
            instance_sp = sp_component / spec.parallelism
        else:
            instance_sp = sp_component * float(np.max(shares))
        alphas = {s: f.alpha for s, f in per_stream_fits.items()}
        models[name] = ComponentModel(
            name,
            InstanceModel(alphas, instance_sp),
            spec.parallelism,
            shares,
        )
        reference = per_stream_fits[stream_names[0]]
        fits[name] = PiecewiseLinearFit(
            alpha=reference.alpha,
            saturation_point=sp_component,
            residual_std=reference.residual_std,
            alpha_stderr=reference.alpha_stderr,
            r_squared=reference.r_squared,
            n_points=reference.n_points,
        )
        for stream in outputs:
            fit = per_stream_fits[stream.name]
            predicted = fit.alpha * np.minimum(x, sp_component)
            add_offered(stream.destination, predicted)

    if cpu_models is not None:
        cpu_models.update(fit_cpu_models(topology, frame, warmup_minutes))
    return TopologyModel(topology, models), fits


# ----------------------------------------------------------------------
# Model-tier interfaces
# ----------------------------------------------------------------------
class PerformanceModel(ABC):
    """Base class for performance models served by the API tier.

    A model is a reading (:meth:`render`) of one
    :class:`~repro.core.topology_model.Evaluation`; :meth:`predict`
    calibrates, applies the proposed plan and evaluates — or takes the
    pass another model of the same request already made.
    ``calibrations`` is the service's shared
    :class:`~repro.core.calibration_cache.CalibrationCache`; without one
    the model makes its own.
    """

    name = "performance-model"
    #: Evaluate a traffic forecast at its peak instead of its mean.
    peak = False

    def __init__(
        self,
        tracker: TopologyTracker,
        store: MetricsStore,
        calibrations: CalibrationCache | None = None,
    ) -> None:
        # Not at module level: the cache calibrates with this module.
        from repro.core.calibration_cache import CalibrationCache

        self.calibrations = calibrations or CalibrationCache(tracker, store)

    def predict(
        self,
        topology_name: str,
        source_rate: float | None = None,
        traffic: TrafficPrediction | None = None,
        parallelisms: Mapping[str, int] | None = None,
        cluster: str = "local",
        environ: str = "test",
        passes: dict[tuple, Evaluation] | None = None,
    ) -> PerformancePrediction:
        """Evaluate the topology under traffic and/or a proposed config.

        ``passes`` is what the models of one request hand each other: the
        evaluations made so far, by calibrated model, plan and source
        rate.  Two models asked the same question read one pass.
        """
        rate = self._resolve_source_rate(source_rate, traffic)
        calibration = self.calibrations.get(topology_name, cluster, environ)
        base, fits = calibration.base, calibration.fits
        plan = dict(parallelisms or {})
        key = (base, tuple(sorted(plan.items())), rate)
        evaluation = None if passes is None else passes.get(key)
        if evaluation is None:
            evaluation = base.with_parallelism(plan).evaluate(rate)
            if passes is not None:
                passes[key] = evaluation
        return self.render(topology_name, evaluation, fits)

    @abstractmethod
    def render(
        self,
        topology_name: str,
        evaluation: Evaluation,
        fits: Mapping[str, PiecewiseLinearFit],
    ) -> PerformancePrediction:
        """This model's report of one evaluated pass."""

    def _resolve_source_rate(
        self,
        source_rate: float | None,
        traffic: TrafficPrediction | None,
    ) -> float:
        if source_rate is not None:
            if source_rate < 0:
                raise ModelError("source_rate must be non-negative")
            return float(source_rate)
        if traffic is not None:
            key = "upper_max" if self.peak else "mean"
            return float(traffic.summary[key])
        raise ModelError("either source_rate or traffic must be given")


class ThroughputPredictionModel(PerformanceModel):
    """Predict end-to-end throughput for a traffic level and config.

    This is the paper's headline model: calibrate on current metrics,
    optionally rescale components to proposed parallelisms (Eq. 9), chain
    along every source→sink path (Eq. 12), and report output rates plus
    the topology's saturation point (Eq. 13).
    """

    name = "throughput-prediction"

    def render(
        self,
        topology_name: str,
        evaluation: Evaluation,
        fits: Mapping[str, PiecewiseLinearFit],
    ) -> PerformancePrediction:
        """See :class:`PerformanceModel.render`."""
        return _throughput(topology_name, evaluation, fits, self.name)


class BackpressureEvaluationModel(PerformanceModel):
    """Classify backpressure risk for current or forecast traffic.

    Uses the peak of the traffic prediction (``upper_max``) rather than
    the mean: preemptive scaling should trigger on the credible worst
    case, which is the "enabling preemptive scaling" benefit from the
    paper's introduction.
    """

    name = "backpressure-evaluation"
    peak = True

    def render(
        self,
        topology_name: str,
        evaluation: Evaluation,
        fits: Mapping[str, PiecewiseLinearFit],
    ) -> PerformancePrediction:
        """See :class:`PerformanceModel.render`."""
        worst = evaluation.worst
        assessments = [path.risk(evaluation.share) for path in evaluation.paths]
        return PerformancePrediction(
            topology=topology_name,
            model=self.name,
            source_rate=evaluation.source_rate,
            parallelisms=evaluation.parallelisms,
            components={},
            output_rate=worst.output_rate,
            saturation_source_rate=(
                worst.saturation_source_rate * evaluation.spouts
            ),
            backpressure_risk=worst.risk(evaluation.share).risk.value,
            bottleneck=worst.bottleneck,
            paths=[
                {
                    "path": list(path.path),
                    "risk": a.risk.value,
                    "saturation_source_rate": (
                        a.saturation_source_rate * evaluation.spouts
                    ),
                    "headroom": a.headroom,
                    "bottleneck": a.bottleneck,
                }
                for path, a in zip(evaluation.paths, assessments)
            ],
        )
