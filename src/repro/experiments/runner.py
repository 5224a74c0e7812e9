"""The one accuracy harness: every experiment, as records, as one document.

``python -m repro.experiments.runner [--quick] [--only SECTION ...]``
runs the paper's Section V figures, the assumption ablations and the
model-quality experiments on the simulated cluster and prints their
records (:mod:`repro.experiments.records`) as canonical JSON::

    {"full": {section: [record, ...], ...}, "quick": {...}}

Without ``--quick`` both scales are printed, so

    PYTHONPATH=src python -m repro.experiments.runner > ACCURACY.json

regenerates the committed file byte for byte (under a minute on two
vCPUs); ``--quick`` prints only the quick slice (seconds), which tier-1
recomputes and holds against the committed one, and ``--only`` prints
the named sections of either.  Every output is a slice of the same
document: a run reads no clock and draws only from seeded generators.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.experiments import ablations, figures, quality
from repro.experiments.figures import ALPHA, PAPER, SPLITTER_SP
from repro.experiments.records import dumps, record

M = 1e6


class Run:
    """One evaluation at one scale: each shared sweep, figure and
    section is computed at most once, whatever asks for it."""

    def __init__(self, quick: bool) -> None:
        self.quick = quick
        self._shared: dict[str, object] = {}
        self._sections: dict[str, list[dict]] = {}

    def __getitem__(self, name: str):
        if name not in self._shared:
            self._shared[name] = _SHARED[name](self)
        return self._shared[name]

    def records(self, sections: Iterable[str]) -> dict[str, list[dict]]:
        """``{section: records}`` for the named sections."""
        names = sorted(set(sections))
        for name in names:
            if name not in self._sections:
                self._sections[name] = SECTIONS[name](self)
        return {name: self._sections[name] for name in names}


#: Sweeps and figures more than one section reads.  Figs. 8 and 12
#: validate on the same p=2 / p=4 deployments; Figs. 7 and 11 calibrate
#: on the same p=3 one.
_SHARED: dict[str, Callable[[Run], object]] = {
    "instance": lambda run: figures.single_instance_sweep(run.quick),
    "splitter": lambda run: {
        p: figures.splitter_sweep(p, run.quick, seed=seed)
        for p, seed in ((2, 8), (3, 7), (4, 9))
    },
    "fig07": lambda run: figures.fig07_component_model(run["splitter"][3]),
    "fig09": lambda run: figures.fig09_counter_model(
        figures.counter_sweep(3, run.quick)
    ),
    "fig11": lambda run: figures.fig11_cpu_model(run["splitter"][3]),
}


def _validation(run: Run) -> dict[int, object]:
    return {p: run["splitter"][p] for p in (2, 4)}


def _fig04_06(run: Run) -> list[dict]:
    sweep = run["instance"]
    f4 = figures.fig04_single_instance(sweep)
    f5 = figures.fig05_io_ratio(sweep)
    f6 = figures.fig06_backpressure(sweep)
    rate, mean = f4["input"]["rate"], f4["input"]["mean"]
    below, above = rate < 10 * M, rate > 12 * M
    config = "splitter p=1"
    return [
        record("fig04", config, "sp_calibration_error",
               abs(f4["measured_sp_tpm"] / SPLITTER_SP - 1)),
        record("fig04", config, "linear_error",
               np.max(np.abs(mean[below] / rate[below] - 1))),
        record("fig04", config, "plateau_error",
               np.max(np.abs(mean[above] / SPLITTER_SP - 1))),
        record("fig04", config, "alpha_error", abs(f4["io_alpha"] / ALPHA - 1)),
        record("fig05", config, "ratio_deviation",
               np.max(np.abs(f5["ratio"] - ALPHA)), unit="words/sentence"),
        record("fig05", config, "ratio_spread",
               f5["ratio_max"] - f5["ratio_min"], unit="words/sentence"),
        record("fig06", config, "bp_below_sp_ms", f6["mean_below_sp_ms"],
               unit="ms", paper=PAPER["fig06"]["bp_below_ms"]),
        record("fig06", config, "bp_above_sp_ms", f6["mean_above_sp_ms"],
               unit="ms", better="higher", paper=PAPER["fig06"]["bp_above_ms"]),
    ]


def _fig07_08(run: Run) -> list[dict]:
    f7 = run["fig07"]
    f8 = figures.fig08_component_validation(f7, _validation(run))
    records = [
        record("fig07", "splitter p=3", "sp_calibration_error",
               abs(f7["component_sp_tpm"] / (3 * SPLITTER_SP) - 1)),
        record("fig07", "splitter p=3", "alpha_error",
               abs(f7["io_ratio"] / ALPHA - 1)),
    ]
    for p, entry in sorted(f8["per_parallelism"].items()):
        records.append(record("fig08", f"splitter p={p}", "st_error",
                              entry["st_error"],
                              paper=PAPER["fig08"][f"p{p}_st_error"]))
    return records


def _fig09(run: Run) -> list[dict]:
    f9 = run["fig09"]
    return [
        record("fig09", "counter p=3", "slope_error", abs(f9["fit"].alpha - 1)),
        record("fig09", "counter p=3", "sp_calibration_error",
               abs(f9["p3_input_sp_tpm"] / PAPER["fig09"]["p3_input_sp_tpm"] - 1)),
    ]


def _fig10(run: Run) -> list[dict]:
    f10 = figures.fig10_critical_path(run.quick, run["fig07"], run["fig09"])
    config = "splitter p=2, counter p=4"
    return [
        record("fig10", config, "st_error", f10["error"],
               paper=PAPER["fig10"]["error"]),
        # The Splitter binds: ST = 2 x 11 M x alpha.
        record("fig10", config, "predicted_st_calibration_error",
               abs(f10["predicted_st_tpm"] / (2 * SPLITTER_SP * ALPHA) - 1)),
    ]


def _fig11_12(run: Run) -> list[dict]:
    f11 = run["fig11"]
    cpu = figures.fig12_cpu_validation(f11, _validation(run))["per_parallelism"]
    records = [record("fig11", "splitter p=3", "cpu_fit_r2",
                      f11["cpu_fit"].r_squared, unit="r2", better="higher")]
    for p, entry in sorted(cpu.items()):
        records.append(record("fig12", f"splitter p={p}", "cpu_error",
                              entry["error"], paper=PAPER["fig12"][f"p{p}_error"]))
    observed = {p: entry["observed_cpu_cores"] for p, entry in cpu.items()}
    records.append(record("fig12", "p=4 vs p=2", "cpu_scaling_error",
                          abs(observed[4] / (2 * observed[2]) - 1)))
    return records


def _scaled(experiment: Callable[[bool], list[dict]]) -> Callable[[Run], list[dict]]:
    return lambda run: experiment(run.quick)


SECTIONS: dict[str, Callable[[Run], list[dict]]] = {
    "fig04-06": _fig04_06,
    "fig07-08": _fig07_08,
    "fig09": _fig09,
    "fig10": _fig10,
    "fig11-12": _fig11_12,
    "skew": _scaled(ablations.skew),
    "stmgr": _scaled(ablations.stmgr),
    "watermarks": _scaled(ablations.watermarks),
    "forecast": _scaled(quality.forecast),
    "traffic-modes": _scaled(quality.traffic_modes),
    "risk": _scaled(quality.risk),
    "latency": _scaled(quality.latency),
    "autoscaler": _scaled(quality.autoscaler),
    "faults": _scaled(quality.faults),
    "matrix": _scaled(quality.matrix),
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run the selected sections and print their records."""
    parser = argparse.ArgumentParser(
        prog="repro-accuracy",
        description="regenerate the accuracy records (ACCURACY.json)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="only the quick slice: coarse grids, fewer repetitions",
    )
    parser.add_argument(
        "--only", nargs="*", choices=sorted(SECTIONS), default=None,
        help="run a subset of the sections",
    )
    args = parser.parse_args(argv)
    sections = args.only or list(SECTIONS)
    scales = ("quick",) if args.quick else ("full", "quick")
    document = {
        scale: Run(quick=scale == "quick").records(sections) for scale in scales
    }
    sys.stdout.write(dumps(document))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
