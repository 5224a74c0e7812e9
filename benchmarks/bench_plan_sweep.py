"""Plan-sweep engine: calibrate-once batch scoring vs one-at-a-time.

The serial baseline prices a 32-plan search the way the one-at-a-time
API tier would: every candidate pays a full calibration pass (throughput
fits + CPU fits) before its single evaluation.  The sweep engine
calibrates once, freezes the artifact, and scores all 32 plans through
the vectorized kernel.

Two gates make this a CI check, not just a report: the sweep must be at
least ``MIN_SWEEP_SPEEDUP`` times faster than the serial baseline, and
the ranked results must be *byte-identical* to ranking the serial
per-plan predictions (canonical JSON equality — the kernel replays the
exact IEEE-754 operation sequence of the serial path).  Run standalone::

    python benchmarks/bench_plan_sweep.py --smoke

or through pytest (``pytest benchmarks/bench_plan_sweep.py``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

M = 1e6
PLAN_COUNT = 32
RATE = 30 * M

#: Gate enforced both standalone (exit status) and under pytest.
MIN_SWEEP_SPEEDUP = 4.0


def _deployment(smoke: bool):
    from repro.heron.simulation import HeronSimulation, SimulationConfig
    from repro.heron.tracker import TopologyTracker
    from repro.heron.wordcount import WordCountParams, build_word_count
    from repro.timeseries.store import MetricsStore

    topology, packing, logic = build_word_count(
        WordCountParams(
            spout_parallelism=4,
            splitter_parallelism=2,
            counter_parallelism=4,
        )
    )
    store = MetricsStore()
    sim = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=31)
    )
    minutes = 2 if smoke else 4
    for rate in np.arange(4 * M, 44 * M + 1, 8 * M):
        sim.set_source_rate("sentence-spout", float(rate))
        sim.run(minutes)
    tracker = TopologyTracker()
    tracker.register(topology, packing)
    return tracker, store


def _plans() -> list[dict[str, int]]:
    """32 candidates: the splitter 1..8 x counter {2,4,6,8} grid."""
    return [
        {"splitter": s, "counter": c}
        for s in range(1, 9)
        for c in (2, 4, 6, 8)
    ]


def run_benchmark(smoke: bool) -> tuple[list[str], dict[str, float]]:
    """Time both paths and verify ranked-result identity."""
    from repro.core.calibration_cache import Calibration
    from repro.serving.fingerprint import canonical_json
    from repro.sweep import PlanSweepEngine

    tracker, store = _deployment(smoke)
    tracked = tracker.get("word-count")
    plans = _plans()

    # Serial baseline: each plan pays the full calibrate-and-predict
    # pipeline, exactly as 32 separate one-at-a-time requests would.
    serial_start = time.perf_counter()
    serial_predictions = []
    for plan in plans:
        artifact = Calibration.build(tracked, store)
        engine_serial = PlanSweepEngine(tracker, store)
        (prediction,) = engine_serial.evaluate_serial(
            artifact, RATE, [plan]
        )
        serial_predictions.append(prediction)
    serial_seconds = time.perf_counter() - serial_start

    # The sweep engine: one calibration, one vectorized batch.
    engine = PlanSweepEngine(tracker, store)
    sweep_start = time.perf_counter()
    payload = engine.sweep("word-count", RATE, plans)
    sweep_seconds = time.perf_counter() - sweep_start

    # Byte-identity of the ranking: order the serial predictions with
    # the sweep's own tie-break and compare plan order and every scored
    # field the serial path produces.
    serial_ranked = sorted(
        zip(plans, serial_predictions),
        key=lambda item: (-item[1].output_rate, canonical_json(item[0])),
    )
    identical = len(serial_ranked) == len(payload["ranked"])
    for (plan, prediction), entry in zip(serial_ranked, payload["ranked"]):
        same = (
            entry["plan"] == plan
            and canonical_json(entry["output_rate"])
            == canonical_json(prediction.output_rate)
            and canonical_json(entry["saturation_source_rate"])
            == canonical_json(prediction.saturation_source_rate)
            and entry["backpressure_risk"] == prediction.backpressure_risk
            and entry["bottleneck"] == prediction.bottleneck
        )
        identical = identical and same

    metrics = {
        "serial_seconds": serial_seconds,
        "sweep_seconds": sweep_seconds,
        "speedup": serial_seconds / sweep_seconds,
        "ranked_identical": float(identical),
    }

    best = payload["ranked"][0]
    lines = [
        f"Plan-sweep engine vs serial per-plan evaluation "
        f"({PLAN_COUNT} plans)" + (" [smoke]" if smoke else ""),
        "workload: word-count splitter 1-8 x counter {2,4,6,8} "
        f"at {RATE / M:.0f}M tuples/min",
        "",
        f"serial (calibrate per plan): {serial_seconds * 1e3:>9.1f} ms",
        f"sweep  (calibrate once):     {sweep_seconds * 1e3:>9.1f} ms",
        f"speedup: {metrics['speedup']:.1f}x "
        f"(gate: >= {MIN_SWEEP_SPEEDUP:.0f}x)",
        f"ranked results byte-identical to serial: "
        f"{'yes' if identical else 'NO'}",
        "",
        f"best plan: {best['plan']} -> "
        f"{best['output_rate'] / M:.1f}M tuples/min out, "
        f"risk={best['backpressure_risk']}",
    ]
    return lines, metrics


def check_gates(metrics: dict[str, float]) -> list[str]:
    """Gate violations, empty when the sweep engine meets its bars."""
    problems = []
    if metrics["speedup"] < MIN_SWEEP_SPEEDUP:
        problems.append(
            f"sweep speedup {metrics['speedup']:.1f}x "
            f"< {MIN_SWEEP_SPEEDUP:.0f}x"
        )
    if not metrics["ranked_identical"]:
        problems.append("ranked results diverge from serial evaluation")
    return problems


def bench_plan_sweep(quick, report):
    lines, metrics = run_benchmark(smoke=quick)
    report("plan_sweep", lines)
    assert not check_gates(metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short calibration sweep (same 32-plan search)",
    )
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(repo_root / "src"))

    lines, metrics = run_benchmark(smoke=args.smoke)
    text = "\n".join(lines)
    print(text)
    results = Path(__file__).resolve().parent / "results"
    results.mkdir(exist_ok=True)
    (results / "plan_sweep.txt").write_text(text + "\n")

    problems = check_gates(metrics)
    for problem in problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
