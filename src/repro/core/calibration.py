"""Calibration: recovering model parameters from observed metrics.

The paper fits its models from production observations: "to draw the
curve in Fig. 3 for a given instance, we need at least two data points:
one in the non-saturation interval and one in the saturation interval"
(Section V-B).  This module implements that fitting:

* :func:`fit_piecewise_linear` — segmented regression for the
  ``min(alpha * t, ST)`` curve, with the paper's structural constraint
  ``ST = alpha * SP`` built in, plus confidence information;
* :func:`fit_linear` — straight-line fits (through the origin or with an
  intercept) used for I/O ratios and the CPU model;
* :func:`component_observations` / :func:`calibrate_sink` — adapters
  that pull per-minute counters out of a metrics store and produce a
  ready-to-use :class:`~repro.core.component_model.ComponentModel`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from repro.core.component_model import ComponentModel
from repro.core.instance_model import InstanceModel
from repro.errors import CalibrationError, DegradedMetricsWarning, MetricsError
from repro.heron.metrics import MetricNames
from repro.timeseries.series import TimeSeries
from repro.timeseries.store import MetricsStore

__all__ = [
    "PiecewiseLinearFit",
    "LinearFit",
    "fit_piecewise_linear",
    "fit_linear",
    "mape",
    "degraded_aggregate",
    "skip_degraded",
    "component_observations",
    "calibrate_sink",
]


@dataclass(frozen=True)
class PiecewiseLinearFit:
    """Parameters of a fitted ``y = alpha * min(x, SP)`` curve.

    ``saturation_point`` is ``math.inf`` when the data never saturates
    (all points lie on the linear segment); ``saturation_throughput`` is
    then also infinite.  ``alpha_stderr`` is the standard error of the
    slope; ``residual_std`` the RMS residual of the chosen fit.
    """

    alpha: float
    saturation_point: float
    residual_std: float
    alpha_stderr: float
    r_squared: float
    n_points: int

    @property
    def saturation_throughput(self) -> float:
        """``ST = alpha * SP``."""
        return self.alpha * self.saturation_point

    @property
    def saturated(self) -> bool:
        """True when the fit found a finite saturation point."""
        return math.isfinite(self.saturation_point)

    def predict(self, x: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the fitted curve."""
        return self.alpha * np.minimum(x, self.saturation_point)


@dataclass(frozen=True)
class LinearFit:
    """A straight-line fit ``y = slope * x + intercept``."""

    slope: float
    intercept: float
    residual_std: float
    r_squared: float
    n_points: int

    def predict(self, x: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the fitted line."""
        return self.slope * np.asarray(x, dtype=np.float64) + self.intercept


def _validate_xy(x: np.ndarray, y: np.ndarray, minimum: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise CalibrationError("x and y must be 1-D arrays of equal length")
    mask = np.isfinite(x) & np.isfinite(y)
    x, y = x[mask], y[mask]
    if x.shape[0] < minimum:
        raise CalibrationError(
            f"need at least {minimum} finite observations, got {x.shape[0]}"
        )
    if np.any(x < 0) or np.any(y < 0):
        raise CalibrationError("rates must be non-negative")
    return x, y


def fit_linear(
    x: np.ndarray,
    y: np.ndarray,
    through_origin: bool = False,
) -> LinearFit:
    """Ordinary least squares for a straight line.

    ``through_origin=True`` fits ``y = slope * x`` (used for I/O
    coefficients, which are zero at zero input).
    """
    x, y = _validate_xy(x, y, minimum=2)
    if through_origin:
        denom = float(np.dot(x, x))
        if denom == 0:
            raise CalibrationError("all x are zero; slope is undefined")
        slope = float(np.dot(x, y) / denom)
        intercept = 0.0
    else:
        design = np.column_stack([x, np.ones_like(x)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        slope, intercept = float(coef[0]), float(coef[1])
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LinearFit(
        slope=slope,
        intercept=intercept,
        residual_std=float(np.sqrt(ss_res / x.shape[0])),
        r_squared=r2,
        n_points=int(x.shape[0]),
    )


def mape(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Mean absolute percentage error of predictions against truth.

    The workload matrix's per-cell score: ``mean(|pred - act| / act)``
    over the pairs whose actual value is positive (a component that
    observed nothing contributes no percentage).  Raises when *no* pair
    has a positive actual — a score of a silent topology is meaningless,
    not zero.
    """
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if actual.shape != predicted.shape or actual.ndim != 1:
        raise CalibrationError(
            "actual and predicted must be 1-D arrays of equal length"
        )
    mask = np.isfinite(actual) & np.isfinite(predicted) & (actual > 0)
    if not mask.any():
        raise CalibrationError(
            "mape needs at least one pair with a positive actual value"
        )
    return float(
        np.mean(np.abs(predicted[mask] - actual[mask]) / actual[mask])
    )


def fit_piecewise_linear(
    x: np.ndarray,
    y: np.ndarray,
    min_linear_points: int = 2,
) -> PiecewiseLinearFit:
    """Segmented regression for ``y = alpha * min(x, SP)``.

    The paper's structural form has only two parameters — the slope and
    the breakpoint (the plateau is their product) — so the fit scans
    candidate breakpoints and solves the conditional least squares
    problem in closed form at each:

    with basis ``m(x) = min(x, SP)``, the optimal slope is
    ``alpha = sum(y * m) / sum(m^2)``.

    Candidates are the observed x values plus a refinement grid between
    the best candidate's neighbours.  If the best breakpoint lands at or
    beyond the largest observation, the data never saturated and the fit
    degenerates to a line through the origin with ``SP = inf``.
    """
    x, y = _validate_xy(x, y, minimum=max(3, min_linear_points + 1))
    order = np.argsort(x)
    x, y = x[order], y[order]
    if float(x.max()) == 0.0:
        raise CalibrationError("all observations at zero rate; nothing to fit")

    def sse_for(sp: float) -> tuple[float, float]:
        m = np.minimum(x, sp)
        denom = float(np.dot(m, m))
        if denom == 0:
            return math.inf, 0.0
        alpha = float(np.dot(y, m) / denom)
        residual = y - alpha * m
        return float(np.dot(residual, residual)), alpha

    # Pass 1: candidate breakpoints at the observed x values.
    candidates = np.unique(x[x > 0])
    best_sp, (best_sse, best_alpha) = candidates[0], sse_for(candidates[0])
    for sp in candidates[1:]:
        sse, alpha = sse_for(float(sp))
        if sse < best_sse:
            best_sp, best_sse, best_alpha = float(sp), sse, alpha
    # Pass 2: refine between the neighbours of the winning candidate.
    idx = int(np.searchsorted(candidates, best_sp))
    lo = candidates[idx - 1] if idx > 0 else best_sp * 0.5
    hi = candidates[idx + 1] if idx + 1 < candidates.shape[0] else best_sp * 1.5
    for sp in np.linspace(lo, hi, 64):
        if sp <= 0:
            continue
        sse, alpha = sse_for(float(sp))
        if sse < best_sse:
            best_sp, best_sse, best_alpha = float(sp), sse, alpha

    # Saturation requires evidence: points meaningfully beyond the
    # breakpoint.  Otherwise report a pure linear fit.
    beyond = int(np.count_nonzero(x > best_sp * 1.0001))
    if beyond == 0 or best_sp >= float(x.max()) * 0.9999:
        line = fit_linear(x, y, through_origin=True)
        return PiecewiseLinearFit(
            alpha=line.slope,
            saturation_point=math.inf,
            residual_std=line.residual_std,
            alpha_stderr=_slope_stderr(x, line.residual_std),
            r_squared=line.r_squared,
            n_points=int(x.shape[0]),
        )
    m = np.minimum(x, best_sp)
    residual_std = float(np.sqrt(best_sse / x.shape[0]))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - best_sse / ss_tot if ss_tot > 0 else 1.0
    return PiecewiseLinearFit(
        alpha=best_alpha,
        saturation_point=best_sp,
        residual_std=residual_std,
        alpha_stderr=_slope_stderr(m, residual_std),
        r_squared=r2,
        n_points=int(x.shape[0]),
    )


def _slope_stderr(basis: np.ndarray, residual_std: float) -> float:
    denom = float(np.dot(basis, basis))
    if denom == 0:
        return math.inf
    return residual_std / math.sqrt(denom)


# ----------------------------------------------------------------------
# Metrics-store adapters
# ----------------------------------------------------------------------
def degraded_aggregate(
    store: MetricsStore,
    name: str,
    tag_filter: dict[str, str],
    start: int | None = None,
) -> TimeSeries:
    """Component rollup that *skips* degraded minutes instead of lying.

    A plain :meth:`~repro.timeseries.store.MetricsStore.aggregate` sums
    over the union of timestamps, silently under-counting any minute
    where an instance failed to report (crash, metrics dropout).  This
    wrapper keeps only fully reported minutes, emits a
    :class:`~repro.errors.DegradedMetricsWarning` naming what was
    dropped, and lets calibration proceed on the clean window — the
    graceful-degradation contract of the fault model.
    """
    return skip_degraded(
        name, tag_filter, *store.aggregate_complete(name, tag_filter, start=start)
    )


def skip_degraded(
    name: str,
    tag_filter: dict[str, str],
    series: TimeSeries,
    degraded: list[int],
    stacklevel: int = 3,
) -> TimeSeries:
    """``series``, after the warning :func:`degraded_aggregate` owes for
    the ``degraded`` minutes a complete-minute aggregate left out of it."""
    if degraded:
        warnings.warn(
            DegradedMetricsWarning(
                f"{name} for {tag_filter}: skipped {len(degraded)} "
                f"degraded metric minute(s) (missing or partially "
                f"reported); calibrating on the remaining {len(series)}"
            ),
            stacklevel=stacklevel,
        )
    return series


def component_observations(
    store: MetricsStore,
    topology_name: str,
    component: str,
    source_spout: str,
    warmup_minutes: int = 1,
) -> dict[str, np.ndarray]:
    """Per-minute observation arrays for one component.

    Returns aligned arrays keyed ``source`` (topology source rate:
    the spouts' external ``source-count``), ``input`` (the component's
    received or fetched tuples), ``output`` (its emitted tuples) and
    ``cpu`` (component CPU cores).  The first ``warmup_minutes`` samples
    are dropped, mirroring the paper's steady-state measurement
    discipline.
    """
    base_tags = {"topology": topology_name}
    source = degraded_aggregate(
        store, MetricNames.SOURCE_COUNT, {**base_tags, "component": source_spout}
    )
    component_tags = {**base_tags, "component": component}
    try:
        inputs = degraded_aggregate(
            store, MetricNames.RECEIVED_COUNT, component_tags
        )
    except MetricsError:  # spouts have no received-count; use fetched
        inputs = degraded_aggregate(
            store, MetricNames.EXECUTE_COUNT, component_tags
        )
    outputs = degraded_aggregate(store, MetricNames.EMIT_COUNT, component_tags)
    cpu = degraded_aggregate(store, MetricNames.CPU_LOAD, component_tags)
    src_aligned, in_aligned = source.align(inputs)
    _, out_aligned = source.align(outputs)
    _, cpu_aligned = source.align(cpu)
    n = min(len(src_aligned), len(out_aligned), len(cpu_aligned))
    if n <= warmup_minutes:
        raise CalibrationError(
            f"only {n} usable aligned minutes available (degraded metric "
            f"windows are skipped); need more than the "
            f"{warmup_minutes}-minute warmup"
        )
    sl = slice(warmup_minutes, n)
    return {
        "source": src_aligned.values[sl],
        "input": in_aligned.values[sl],
        "output": out_aligned.values[sl],
        "cpu": cpu_aligned.values[sl],
    }


def calibrate_sink(
    name: str,
    offered: np.ndarray,
    processed: np.ndarray,
    parallelism: int,
    input_shares: np.ndarray | None = None,
) -> tuple[ComponentModel, PiecewiseLinearFit]:
    """Fit a sink component (no output streams) from its input curve.

    The paper's Counter evaluation (Fig. 9) fits the component's *input*
    throughput against the rate offered to it: slope ~1 below the
    saturation point, flat above.  The resulting model has no alphas —
    its processed rate is what the topology chain (Eq. 12) reports as
    the topology output.
    """
    fit = fit_piecewise_linear(offered, processed)
    if input_shares is None:
        scale = float(parallelism)
    else:
        shares = np.asarray(input_shares, dtype=np.float64)
        max_share = float(shares.max())
        if max_share <= 0:
            raise CalibrationError("input shares must have positive mass")
        scale = 1.0 / max_share
    # The instance's saturation point is its processing capacity: the
    # plateau height divided over the instances (alpha~1 folds noise in).
    instance_sp = (
        fit.saturation_throughput / scale
        if fit.saturated
        else math.inf
    )
    instance = InstanceModel({}, instance_sp)
    model = ComponentModel(
        name,
        instance,
        parallelism,
        None if input_shares is None else input_shares,
    )
    return model, fit
