"""Reproductions of the paper's evaluation figures (Section V).

Each ``figNN_*`` function regenerates one figure from the sweeps it is
handed (the runner computes every sweep once and shares it) and returns
a dictionary of the fits, model predictions and headline numbers the
runner's records are computed from, and that later figures chain on.
``PAPER`` holds the values the paper reports for the same numbers, which
the records carry beside the measured ones.

Absolute rates depend on the simulator's calibrated capacities (chosen
to land near the paper's: Splitter instance SP ≈ 11 M tuples/min,
Counter instance ≈ 70 M tuples/min every minute); what must reproduce is
the *shape* and the prediction *errors*.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.calibration import fit_piecewise_linear
from repro.core.cpu_model import fit_cpu_model
from repro.experiments.sweeps import SweepResult, run_sweep
from repro.heron.wordcount import WordCountParams

__all__ = [
    "ALPHA",
    "PAPER",
    "SPLITTER_SP",
    "fig04_single_instance",
    "fig05_io_ratio",
    "fig06_backpressure",
    "fig07_component_model",
    "fig08_component_validation",
    "fig09_counter_model",
    "fig10_critical_path",
    "fig11_cpu_model",
    "fig12_cpu_validation",
]

M = 1e6

#: Values the paper reports, for side-by-side comparison.
PAPER = {
    "fig06": {"bp_below_ms": 0.0, "bp_above_ms": 60_000.0},
    "fig08": {"p2_st_error": 0.029, "p4_st_error": 0.025},
    "fig09": {"p3_input_sp_tpm": 210 * M},
    "fig10": {"error": 0.028},
    "fig12": {"p2_error": 0.048, "p4_error": 0.030},
}

#: The simulated Word Count's design values the measured ones are held
#: to: a Splitter instance's saturation point (tuples/min) and the
#: synthetic corpus's words per sentence (the Splitter's I/O coefficient).
SPLITTER_SP = 11 * M
ALPHA = 7.635


def _grid(quick: bool, start: float, stop: float, step: float) -> np.ndarray:
    rates = np.arange(start, stop + step / 2, step)
    if quick:
        rates = rates[::3] if rates.size > 6 else rates
    return rates


def _runs(quick: bool, full: int) -> int:
    return 2 if quick else full


# ----------------------------------------------------------------------
# Fig. 4-6: single instance
# ----------------------------------------------------------------------
def single_instance_sweep(quick: bool = False, seed: int = 4) -> SweepResult:
    """The Fig. 4 experiment: Splitter p=1, Counter p=3, spout p=8.

    Source rates 1..20 M tuples/min in 1 M steps, repeated (10 times in
    the paper).
    """
    params = WordCountParams(splitter_parallelism=1, counter_parallelism=3)
    rates = _grid(quick, 1 * M, 20 * M, 1 * M)
    return run_sweep(params, rates, runs=_runs(quick, 10), seed=seed)


def fig04_single_instance(sweep: SweepResult) -> dict[str, object]:
    """Fig. 4: instance input/output throughput vs source throughput."""
    x, y_in = sweep.observations("splitter", "input")
    fit_in = fit_piecewise_linear(x, y_in)
    x, y_out = sweep.observations("splitter", "output")
    fit_out = fit_piecewise_linear(x, y_out)
    return {
        "input": sweep.series("splitter", "input"),
        "measured_sp_tpm": fit_in.saturation_point,
        "io_alpha": fit_out.alpha,
    }


def fig05_io_ratio(sweep: SweepResult) -> dict[str, object]:
    """Fig. 5: instance output/input ratio vs source throughput."""
    rates = sweep.rates()
    ratios = []
    for rate in rates:
        pts = [p for p in sweep.points if p.source_tpm == rate]
        total_out = sum(p.component_output["splitter"] for p in pts)
        total_in = sum(p.component_input["splitter"] for p in pts)
        # Ratio of totals, not mean of per-minute ratios: queueing across
        # minute boundaries makes single-minute ratios noisy, while the
        # paper's long steady-state windows average that out.
        ratios.append(total_out / total_in if total_in > 0 else math.nan)
    ratios = np.asarray(ratios)
    return {
        "ratio": ratios,
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
    }


def fig06_backpressure(sweep: SweepResult) -> dict[str, object]:
    """Fig. 6: backpressure time (ms/minute) vs source throughput."""
    series = sweep.series("splitter", "backpressure")
    x, y_in = sweep.observations("splitter", "input")
    sp = fit_piecewise_linear(x, y_in).saturation_point
    below = series["mean"][series["rate"] < sp * 0.95]
    above = series["mean"][series["rate"] > sp * 1.15]
    return {
        "mean_below_sp_ms": float(below.mean()) if below.size else 0.0,
        "mean_above_sp_ms": float(above.mean()) if above.size else math.nan,
    }


# ----------------------------------------------------------------------
# Fig. 7-8: Splitter component model
# ----------------------------------------------------------------------
def splitter_sweep(
    parallelism: int, quick: bool = False, seed: int = 7
) -> SweepResult:
    """A Splitter component sweep at one parallelism (Counter kept wide)."""
    params = WordCountParams(
        splitter_parallelism=parallelism, counter_parallelism=8
    )
    rates = _grid(quick, 2 * M, 68 * M, 6 * M)
    return run_sweep(params, rates, runs=_runs(quick, 5), seed=seed)


def fig07_component_model(sweep3: SweepResult) -> dict[str, object]:
    """Fig. 7: Splitter p=3 measurements + p=2 / p=4 predictions (Eq. 9)."""
    x, y_in = sweep3.observations("splitter", "input")
    _, y_out = sweep3.observations("splitter", "output")
    fit_in = fit_piecewise_linear(x, y_in)
    fit_out = fit_piecewise_linear(x, y_out)
    predictions = {}
    for p in (2, 4):
        gamma = p / 3.0
        predictions[p] = {
            "input_inflection_tpm": fit_in.saturation_point * gamma,
            "output_st_tpm": fit_out.saturation_throughput * gamma,
        }
    return {
        "fit_output": fit_out,
        "io_ratio": fit_out.alpha,
        "component_sp_tpm": fit_in.saturation_point,
        "predictions": predictions,
    }


def fig08_component_validation(
    fig07: dict[str, object], sweeps: dict[int, SweepResult]
) -> dict[str, object]:
    """Fig. 8: deploy Splitter p=2 and p=4; compare measured vs predicted ST."""
    results: dict[int, dict[str, float]] = {}
    for p, sweep in sweeps.items():
        x, y_out = sweep.observations("splitter", "output")
        fit = fit_piecewise_linear(x, y_out)
        predicted = fig07["predictions"][p]["output_st_tpm"]  # type: ignore[index]
        observed = fit.saturation_throughput
        results[p] = {
            "predicted_st_tpm": float(predicted),
            "observed_st_tpm": float(observed),
            "st_error": abs(predicted - observed) / observed,
        }
    return {"per_parallelism": results}


# ----------------------------------------------------------------------
# Fig. 9: Counter component model (fields grouping)
# ----------------------------------------------------------------------
def counter_sweep(
    parallelism: int, quick: bool = False, seed: int = 11
) -> SweepResult:
    """A Counter sweep at one parallelism (Splitter kept wide)."""
    params = WordCountParams(
        splitter_parallelism=7, counter_parallelism=parallelism
    )
    rates = _grid(quick, 2 * M, 68 * M, 6 * M)
    return run_sweep(params, rates, runs=_runs(quick, 5), seed=seed)


def fig09_counter_model(sweep3: SweepResult) -> dict[str, object]:
    """Fig. 9: Counter input throughput vs its offered (source) rate.

    The Counter's offered rate is the sentence rate amplified by the
    Splitter's alpha — recovered, as the paper does, from the linear
    region of the same experiment.
    """
    src, splitter_out = sweep3.observations("splitter", "output")
    _, counter_in = sweep3.observations("counter", "input")
    bp = np.array([p.backpressure_ms for p in sweep3.points])
    # Splitter alpha from backpressure-free observations: with the
    # topology throttled, the measured splitter output understates what
    # the configured source would offer, so saturated points must be
    # excluded when estimating the amplification.
    linear = bp < 1000.0
    if not np.any(linear):
        linear = src <= np.quantile(src, 0.25)
    alpha = float(np.median(splitter_out[linear] / src[linear]))
    fit = fit_piecewise_linear(src * alpha, counter_in)
    return {
        "fit": fit,
        "p3_input_sp_tpm": fit.saturation_point,
        "prediction_p4": {"input_sp_tpm": fit.saturation_point * (4.0 / 3.0)},
    }


# ----------------------------------------------------------------------
# Fig. 10: critical-path / topology prediction
# ----------------------------------------------------------------------
def fig10_critical_path(
    quick: bool, fig07: dict[str, object], fig09: dict[str, object]
) -> dict[str, object]:
    """Fig. 10: chain the component models and validate on a deployment.

    Component models come from the earlier experiments (Splitter fit at
    p=3 from Fig. 7, Counter fit at p=3 from Fig. 9), are rescaled by
    Eq. 9 to the target parallelisms (Splitter 2, Counter 4), chained by
    Eq. 12, and validated against a real deployment of that topology.
    """
    splitter_fit = fig07["fit_output"]
    counter_fit = fig09["fit"]
    splitter_p, counter_p = 2, 4
    splitter_sp = splitter_fit.saturation_point * (splitter_p / 3.0)
    splitter_alpha = splitter_fit.alpha
    counter_sp_words = counter_fit.saturation_point * (counter_p / 3.0)

    def predict_output(source_tpm: np.ndarray) -> np.ndarray:
        words = splitter_alpha * np.minimum(source_tpm, splitter_sp)
        return np.minimum(words, counter_sp_words)

    params = WordCountParams(
        splitter_parallelism=splitter_p, counter_parallelism=counter_p
    )
    rates = _grid(quick, 2 * M, 68 * M, 6 * M)
    sweep = run_sweep(params, rates, runs=_runs(quick, 5), seed=10)
    measured = sweep.series("counter", "input")
    # Error at saturation (the paper's headline 2.8%): compare the
    # plateau of the prediction with the measured plateau.
    x, y = sweep.observations("counter", "input")
    fit_measured = fit_piecewise_linear(x, y)
    predicted_st = float(predict_output(np.asarray([rates.max()]))[0])
    observed_st = fit_measured.saturation_throughput
    if not math.isfinite(observed_st):
        observed_st = float(measured["mean"][-1])
    error = abs(predicted_st - observed_st) / max(predicted_st, observed_st)
    return {
        "predicted_st_tpm": predicted_st,
        "observed_st_tpm": observed_st,
        "error": error,
    }


# ----------------------------------------------------------------------
# Fig. 11-12: CPU load
# ----------------------------------------------------------------------
def fig11_cpu_model(sweep3: SweepResult) -> dict[str, object]:
    """Fig. 11: Splitter CPU load at p=3, with p=2 / p=4 predicted lines.

    The chained prediction of Section V-E: the throughput model gives
    per-instance input rates for a source rate; the fitted psi slope
    turns inputs into cores.
    """
    inst_in, inst_cpu = sweep3.instance_observations("splitter")
    cpu_model, cpu_fit = fit_cpu_model("splitter", inst_in, inst_cpu)
    x, y_in = sweep3.observations("splitter", "input")
    instance_sp = fit_piecewise_linear(x, y_in).saturation_point / 3.0

    def predict_component_cpu(p: int, source_tpm: np.ndarray) -> np.ndarray:
        per_instance = np.minimum(source_tpm / p, instance_sp)
        return p * (cpu_model.base_cores + cpu_model.psi * per_instance)

    return {
        "cpu_model": cpu_model,
        "cpu_fit": cpu_fit,
        "predict_fn": predict_component_cpu,
    }


def fig12_cpu_validation(
    fig11: dict[str, object], sweeps: dict[int, SweepResult]
) -> dict[str, object]:
    """Fig. 12: measured vs predicted Splitter CPU at p=2 and p=4."""
    predict = fig11["predict_fn"]
    results: dict[int, dict[str, float]] = {}
    for p, sweep in sweeps.items():
        series = sweep.series("splitter", "cpu")
        predicted = predict(p, series["rate"])
        # Compare at saturation (the paper quotes the plateau values).
        top = series["rate"] >= series["rate"].max() * 0.7
        observed_sat = float(series["mean"][top].mean())
        predicted_sat = float(predicted[top].mean())
        results[p] = {
            "observed_cpu_cores": observed_sat,
            "predicted_cpu_cores": predicted_sat,
            "error": abs(predicted_sat - observed_sat)
            / max(observed_sat, predicted_sat),
        }
    return {"per_parallelism": results}
