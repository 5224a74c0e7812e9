"""The evaluate-many half of the plan-sweep engine.

:func:`evaluate_plans` scores N candidate parallelism plans against one
:class:`~repro.sweep.artifact.CalibrationArtifact` in a single pass:
plan rows are stacked into ``(n_plans, instances)`` matrices and the
piecewise-linear chain ``T(t) = min(alpha·t, ST)`` is reduced along the
instance axis for every plan at once.

The kernel is built to be *bitwise identical* to evaluating each plan
through :func:`repro.core.performance_models.evaluate_throughput`:

* plans sharing a component parallelism share one
  :class:`~repro.core.component_model.ComponentModel`, drawn from the
  memo the serial path rescales through
  (:meth:`~repro.core.topology_model.TopologyModel.rescaled`), so every
  scalar (share vectors, instance saturation points, alphas) is the same
  object;
* ``shares[None, :] * x[:, None]`` produces, row by row, the very
  ``shares * x`` products the serial path computes, and summing a
  C-contiguous matrix along its last axis uses numpy's pairwise
  reduction exactly as a 1-D sum does;
* scalar-vector ops (``sp / factor``, ``threshold * sat``) apply the
  same IEEE operation the serial scalar code applies, element by
  element.

The equivalence test battery pins this property down to the byte.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.component_model import ComponentModel
from repro.core.performance_models import PerformancePrediction
from repro.durability.deadline import check_deadline
from repro.errors import ModelError
from repro.heron.topology import LogicalTopology
from repro.sweep.artifact import CalibrationArtifact

__all__ = ["evaluate_plans", "estimate_plan_cpu"]


def _stream_between(
    topology: LogicalTopology, source: str, destination: str
) -> str:
    """First declared stream from ``source`` to ``destination``.

    First match wins, as where the serial pass compiles its paths.
    """
    for stream in topology.outputs(source):
        if stream.destination == destination:
            return stream.name
    raise ModelError(f"no stream from {source!r} to {destination!r}")


class _PlanBatch:
    """Stacked view of N plans: per-component groups of identical models.

    For each component, plans are grouped by their effective parallelism;
    each group evaluates through one :class:`ComponentModel` (built with
    the serial path's rescaling) over the group's plan rows.
    """

    def __init__(
        self, artifact: CalibrationArtifact, plans: Sequence[Mapping[str, int]]
    ) -> None:
        self.artifact = artifact
        self.plans = [artifact.validate_plan(plan) for plan in plans]
        self.n = len(self.plans)
        self._groups: dict[str, list[tuple[ComponentModel, np.ndarray]]] = {}

    def groups_for(self, name: str) -> list[tuple[ComponentModel, np.ndarray]]:
        groups = self._groups.get(name)
        if groups is None:
            base_p = self.artifact.topology.parallelism(name)
            ps = np.asarray(
                [plan.get(name, base_p) for plan in self.plans], dtype=np.int64
            )
            groups = [
                (self.artifact.base.rescaled(name, int(p)), np.nonzero(ps == p)[0])
                for p in dict.fromkeys(ps.tolist())
            ]
            self._groups[name] = groups
        return groups

    # ------------------------------------------------------------------
    # Vectorized component primitives (one (plans, instances) matrix per
    # parallelism group, reduced along the instance axis)
    # ------------------------------------------------------------------
    def processed(self, name: str, x: np.ndarray) -> np.ndarray:
        out = np.empty(self.n)
        for model, idx in self.groups_for(name):
            m = np.minimum(
                model.input_shares[None, :] * x[idx][:, None],
                model.instance.saturation_point,
            )
            out[idx] = m.sum(axis=1)
        return out

    def stream_output(
        self, name: str, x: np.ndarray, stream: str
    ) -> np.ndarray:
        out = np.empty(self.n)
        for model, idx in self.groups_for(name):
            alpha = model.instance.alpha(stream)
            m = np.minimum(
                model.input_shares[None, :] * x[idx][:, None],
                model.instance.saturation_point,
            )
            out[idx] = (alpha * m).sum(axis=1)
        return out

    def saturation_points(self, name: str) -> np.ndarray:
        out = np.empty(self.n)
        for model, idx in self.groups_for(name):
            out[idx] = model.saturation_point()
        return out

    def is_saturated(self, name: str, x: np.ndarray) -> np.ndarray:
        return x >= self.saturation_points(name)


def evaluate_plans(
    artifact: CalibrationArtifact,
    source_rate: float,
    plans: Sequence[Mapping[str, int]],
    model_name: str = "throughput-prediction",
) -> list[PerformancePrediction]:
    """Score every candidate plan at one source rate, in one pass.

    Returns one :class:`PerformancePrediction` per plan, in input order,
    bitwise identical to evaluating ``artifact.model_for_plan(plan)``
    through :func:`~repro.core.performance_models.evaluate_throughput`.
    """
    if source_rate < 0:
        raise ModelError("source_rate must be non-negative")
    batch = _PlanBatch(artifact, plans)
    n = batch.n
    if n == 0:
        return []
    topology = artifact.topology
    spouts = [s.name for s in topology.spouts()]
    rate = float(source_rate)
    share = rate / len(spouts)

    # ---- whole-DAG propagation (mirrors TopologyModel.propagate) ----
    inputs: dict[str, np.ndarray] = {
        name: np.zeros(n) for name in topology.components
    }
    for name in spouts:
        inputs[name] = np.full(n, float(share))
    processed_by: dict[str, np.ndarray] = {}
    component_rows: dict[str, tuple] = {}
    for spec in topology.topological_order():
        check_deadline()
        name = spec.name
        x = inputs[name]
        streams = list(topology.outputs(name))
        processed = np.empty(n)
        saturated = np.empty(n, dtype=bool)
        stream_outs: list[np.ndarray] = [np.empty(n) for _ in streams]
        for model, idx in batch.groups_for(name):
            xg = x[idx]
            m = np.minimum(
                model.input_shares[None, :] * xg[:, None],
                model.instance.saturation_point,
            )
            processed[idx] = m.sum(axis=1)
            saturated[idx] = xg >= model.saturation_point()
            per_stream: dict[str, np.ndarray] = {}
            for j, stream in enumerate(streams):
                out = per_stream.get(stream.name)
                if out is None:
                    out = (model.instance.alpha(stream.name) * m).sum(axis=1)
                    per_stream[stream.name] = out
                stream_outs[j][idx] = out
        for j, stream in enumerate(streams):
            inputs[stream.destination] += stream_outs[j]
        processed_by[name] = processed
        component_rows[name] = (x, processed, streams, stream_outs, saturated)

    # ---- per-path bottlenecks and chained outputs ----
    paths = artifact.paths
    n_paths = len(paths)
    path_output = np.empty((n_paths, n)) if n_paths else np.empty((0, n))
    path_sat = np.full((n_paths, n), np.inf) if n_paths else np.empty((0, n))
    path_bottleneck: list[list[str | None]] = []
    path_streams: list[list[str]] = []
    for pi, path in enumerate(paths):
        check_deadline()
        streams = [
            _stream_between(topology, path[k], path[k + 1])
            for k in range(len(path) - 1)
        ]
        path_streams.append(streams)
        # Chained output (Eq. 12) for every plan at once.
        rate_vec = np.full(n, float(share))
        for k, name in enumerate(path):
            if k + 1 < len(path):
                rate_vec = batch.stream_output(name, rate_vec, streams[k])
            else:
                rate_vec = batch.processed(name, rate_vec)
        path_output[pi] = rate_vec
        # Bottleneck scan (Eq. 13): SP_k / L_k with L_k the
        # product of upstream alphas — plan-independent scalars.
        factor = 1.0
        finite_names: list[str] = []
        finite_rates: list[np.ndarray] = []
        for k, name in enumerate(path):
            sp_vec = batch.saturation_points(name)
            base_sp = artifact.base.component(name).instance.saturation_point
            # A stage behind a zero alpha is never reached: it cannot be
            # saturated from the source (the serial chain skips it too).
            if not np.isinf(base_sp) and factor > 0:
                finite_names.append(name)
                finite_rates.append(sp_vec / factor)
            if k + 1 < len(path):
                factor *= artifact.base.component(name).instance.alpha(
                    streams[k]
                )
        if finite_rates:
            stacked = np.stack(finite_rates)
            winner = np.argmin(stacked, axis=0)
            path_sat[pi] = stacked[winner, np.arange(n)]
            path_bottleneck.append([finite_names[w] for w in winner])
        else:
            path_bottleneck.append([None] * n)

    # ---- worst path per plan (strict-< first-wins, like the scalar loop)
    if n_paths:
        worst_idx = np.argmin(path_sat, axis=0)
        worst_sat = path_sat[worst_idx, np.arange(n)]
        has_worst = ~np.isinf(worst_sat)
    else:
        worst_idx = np.zeros(n, dtype=np.int64)
        worst_sat = np.full(n, np.inf)
        has_worst = np.zeros(n, dtype=bool)

    # ---- output rate: Python-ordered sum over sinks ----
    output_rate = np.zeros(n)
    for spec in topology.sinks():
        output_rate = output_rate + processed_by[spec.name]

    # ---- chained stderr along each plan's worst path ----
    stderr = np.zeros(n)
    fits = artifact.fits
    for pi in set(worst_idx[has_worst].tolist()):
        path = paths[pi]
        streams = path_streams[pi]
        total_sq = np.zeros(n)
        rate_vec = np.full(n, float(share))
        for k, name in enumerate(path):
            fit = fits.get(name)
            if fit is not None:
                rel_lin = (
                    fit.alpha_stderr / fit.alpha if fit.alpha > 0 else 0.0
                )
                if fit.saturated:
                    denominator = fit.saturation_throughput
                    rel_sat = (
                        fit.residual_std / denominator
                        if denominator > 0
                        else 0.0
                    )
                    rel = np.where(
                        batch.is_saturated(name, rate_vec), rel_sat, rel_lin
                    )
                else:
                    rel = np.full(n, rel_lin)
                total_sq = total_sq + rel * rel
            if k + 1 < len(path):
                rate_vec = batch.stream_output(name, rate_vec, streams[k])
        mask = has_worst & (worst_idx == pi)
        stderr[mask] = np.sqrt(total_sq)[mask]

    # ---- assemble per-plan predictions ----
    worst_sat_topology = worst_sat * len(spouts)
    threshold = 0.9
    predictions: list[PerformancePrediction] = []
    order = [spec.name for spec in topology.topological_order()]
    for i, plan in enumerate(batch.plans):
        components: dict[str, dict[str, object]] = {}
        for name in order:
            x, processed, streams, stream_outs, saturated = component_rows[name]
            outputs: dict[str, float] = {}
            for j, stream in enumerate(streams):
                outputs[stream.name] = float(stream_outs[j][i])
            components[name] = {
                "input": float(x[i]),
                "processed": float(processed[i]),
                "outputs": outputs,
                "saturated": bool(saturated[i]),
            }
        path_reports = [
            {
                "path": list(paths[pi]),
                "output_rate": float(path_output[pi, i]),
                "saturation_source_rate": float(path_sat[pi, i]),
                "bottleneck": path_bottleneck[pi][i],
            }
            for pi in range(n_paths)
        ]
        # A plan has a worst path exactly when some path saturates
        # (strict `sat < inf` in the scalar loop).
        if bool(has_worst[i]):
            wi = int(worst_idx[i])
            sat_rate = float(worst_sat[i])
            high = share >= threshold * sat_rate
            risk_value = "high" if high else "low"
            bottleneck = path_bottleneck[wi][i]
            rate_stderr = float(output_rate[i] * stderr[i])
        else:
            risk_value = "low"
            bottleneck = None
            rate_stderr = float(output_rate[i] * 0.0)
        predictions.append(
            PerformancePrediction(
                topology=artifact.topology_name,
                model=model_name,
                source_rate=rate,
                parallelisms=artifact.plan_parallelisms(plan),
                components=components,
                output_rate=float(output_rate[i]),
                saturation_source_rate=float(worst_sat_topology[i]),
                backpressure_risk=risk_value,
                bottleneck=bottleneck,
                paths=path_reports,
                output_rate_stderr=rate_stderr,
            )
        )
    return predictions


def estimate_plan_cpu(
    artifact: CalibrationArtifact,
    predictions: Sequence[PerformancePrediction],
) -> list[float | None]:
    """Estimated total cores per plan from the artifact's CPU fits.

    Uses each prediction's propagated per-component input rates, so a
    plan that shifts the bottleneck sees its true (clipped) load.
    Returns ``None`` per plan when no CPU coefficients were fit.
    """
    if not artifact.cpu_models:
        return [None] * len(predictions)
    estimates: list[float | None] = []
    for prediction in predictions:
        total = 0.0
        for name, cpu_model in artifact.cpu_models.items():
            model = artifact.base.rescaled(
                name, int(prediction.parallelisms[name])
            )
            report = prediction.components.get(name)
            input_rate = float(report["input"]) if report else 0.0
            total += cpu_model.component_cpu(model, input_rate)
        estimates.append(total)
    return estimates
