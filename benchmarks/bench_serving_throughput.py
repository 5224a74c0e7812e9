"""Serving-layer throughput: cold vs distinct vs warm vs coalesced requests.

Measures request rate and latency percentiles of the modelling API over
a real :class:`~repro.api.server.CaladriusServer` in four regimes:

* **cold** — one metrics sample is written before every request, so each
  one misses the result cache *and* the calibration cache and runs the
  full calibrate-and-predict pipeline (the paper's "up to several
  seconds" API-tier latency);
* **distinct** — every request differs but the data does not: the result
  cache misses, the topology's calibration is reused and only the
  closed-form evaluation runs (reported, not gated);
* **warm** — the same request repeated: after the first computation the
  content-addressed cache answers from memory;
* **coalesced** — bursts of identical concurrent requests against an
  invalidated cache: single-flight runs one computation per burst and
  the rest of the burst shares it.

Two gates make this a CI check, not just a report: the warm phase must
hit the cache at least 90% of the time, and warm throughput must be at
least 5x cold throughput.  Run standalone::

    python benchmarks/bench_serving_throughput.py --smoke

or through pytest (``pytest benchmarks/bench_serving_throughput.py``).
"""

from __future__ import annotations

import argparse
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

M = 1e6

#: Gates enforced both standalone (exit status) and under pytest.
MIN_WARM_HIT_RATE = 0.90
MIN_WARM_SPEEDUP = 5.0


def _percentile(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.array(latencies), q))


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
        topology, packing, logic, store, SimulationConfig(seed=23)
    )
    minutes = 2 if smoke else 4
    for rate in np.arange(4 * M, 44 * M + 1, 8 * M):
        sim.set_source_rate("sentence-spout", float(rate))
        sim.run(minutes)
    tracker = TopologyTracker()
    tracker.register(topology, packing)
    return tracker, store


def run_benchmark(smoke: bool) -> tuple[list[str], dict[str, float]]:
    """Run all four phases; returns (report lines, metrics)."""
    from repro.api.app import CaladriusApp
    from repro.api.client import CaladriusClient
    from repro.api.server import CaladriusServer
    from repro.config import load_config

    cold_n = 6 if smoke else 16
    warm_n = 150 if smoke else 1500
    bursts = 4 if smoke else 12
    burst_width = 8

    tracker, store = _deployment(smoke)
    config = load_config(
        {
            "traffic_models": ["stats-summary"],
            "performance_models": ["throughput-prediction"],
        }
    )
    app = CaladriusApp(config, tracker, store)
    invalidations = itertools.count()

    def invalidate() -> None:
        """One sample: moves word-count's data version, nothing else."""
        store.write(
            "bench-invalidation", next(invalidations), 1.0,
            {"topology": "word-count"},
        )

    metrics: dict[str, float] = {}
    phases: list[tuple[str, int, float, float, float]] = []
    try:
        with CaladriusServer(app) as server:
            client = CaladriusClient(
                "127.0.0.1", server.port, timeout=120, retries=0
            )

            def timed(calls, before=None) -> tuple[float, list[float]]:
                latencies = []
                start = time.perf_counter()
                for call in calls:
                    if before is not None:
                        before()
                    t0 = time.perf_counter()
                    call()
                    latencies.append(time.perf_counter() - t0)
                return time.perf_counter() - start, latencies

            def predictions(rates):
                return [
                    lambda r=rate: client.performance(
                        "word-count", source_rate=float(r)
                    )
                    for rate in rates
                ]

            # Cold: a write before every request, so every request
            # calibrates.  (Distinct rates alone no longer do that: the
            # calibration outlives the request that made it.)
            cold_wall, cold_lat = timed(
                predictions(np.linspace(6 * M, 20 * M, cold_n)),
                before=invalidate,
            )
            phases.append(
                ("cold", cold_n, cold_n / cold_wall,
                 _percentile(cold_lat, 50), _percentile(cold_lat, 99))
            )

            # Distinct, same data: result-cache misses answered from the
            # calibration the last cold request left behind.
            fits_before = client.serving_stats()["calibration"]["misses"]
            distinct_wall, distinct_lat = timed(
                predictions(np.linspace(7 * M, 21 * M, cold_n))
            )
            metrics["distinct_calibrations"] = float(
                client.serving_stats()["calibration"]["misses"] - fits_before
            )
            phases.append(
                ("distinct", cold_n, cold_n / distinct_wall,
                 _percentile(distinct_lat, 50),
                 _percentile(distinct_lat, 99))
            )

            # Warm: one priming request, then repeats of it.
            client.performance("word-count", source_rate=10 * M)
            hits_before = client.serving_stats()["hits"]
            warm_wall, warm_lat = timed(
                [
                    lambda: client.performance(
                        "word-count", source_rate=10 * M
                    )
                ]
                * warm_n
            )
            hit_rate = (
                client.serving_stats()["hits"] - hits_before
            ) / warm_n
            phases.append(
                ("warm", warm_n, warm_n / warm_wall,
                 _percentile(warm_lat, 50), _percentile(warm_lat, 99))
            )

            # Coalesced: invalidate, then a burst of identical
            # concurrent requests; single-flight computes once.
            coalesced_lat: list[float] = []
            burst_wall = 0.0
            with ThreadPoolExecutor(max_workers=burst_width) as pool:
                for burst in range(bursts):
                    invalidate()
                    barrier = threading.Barrier(burst_width, timeout=60)

                    def one():
                        barrier.wait()
                        t0 = time.perf_counter()
                        client.performance(
                            "word-count", source_rate=10 * M
                        )
                        return time.perf_counter() - t0
                    start = time.perf_counter()
                    futures = [
                        pool.submit(one) for _ in range(burst_width)
                    ]
                    coalesced_lat.extend(f.result(120) for f in futures)
                    burst_wall += time.perf_counter() - start
            coalesced_n = bursts * burst_width
            phases.append(
                ("coalesced", coalesced_n, coalesced_n / burst_wall,
                 _percentile(coalesced_lat, 50),
                 _percentile(coalesced_lat, 99))
            )

            stats = client.serving_stats()
    finally:
        app.shutdown()

    metrics["warm_hit_rate"] = hit_rate
    metrics["cold_rps"] = phases[0][2]
    metrics["distinct_rps"] = phases[1][2]
    metrics["warm_rps"] = phases[2][2]
    metrics["coalesced_rps"] = phases[3][2]
    metrics["warm_speedup"] = metrics["warm_rps"] / metrics["cold_rps"]
    metrics["coalesced"] = float(stats["coalesced"])

    lines = [
        "Serving layer throughput: cold vs distinct vs warm vs coalesced",
        "workload: POST /model/topology/heron/word-count "
        "(throughput-prediction)"
        + (" [smoke]" if smoke else ""),
        "",
        f"{'phase':>10} {'requests':>9} {'req/sec':>10} "
        f"{'p50 ms':>9} {'p99 ms':>9}",
    ]
    for name, count, rps, p50, p99 in phases:
        lines.append(
            f"{name:>10} {count:>9} {rps:>10.1f} "
            f"{p50 * 1e3:>9.2f} {p99 * 1e3:>9.2f}"
        )
    lines += [
        "",
        f"warm hit rate: {hit_rate:.1%} "
        f"(gate: >= {MIN_WARM_HIT_RATE:.0%})",
        f"warm/cold speedup: {metrics['warm_speedup']:.1f}x "
        f"(gate: >= {MIN_WARM_SPEEDUP:.0f}x)",
        f"distinct/cold speedup: "
        f"{metrics['distinct_rps'] / metrics['cold_rps']:.1f}x with "
        f"{metrics['distinct_calibrations']:.0f} calibrations "
        "(same data, calibration reused; not gated)",
        f"coalesced waiters served without computing: "
        f"{stats['coalesced']:.0f}",
    ]
    return lines, metrics


def check_gates(metrics: dict[str, float]) -> list[str]:
    """Gate violations, empty when the serving layer meets its bars."""
    problems = []
    if metrics["warm_hit_rate"] < MIN_WARM_HIT_RATE:
        problems.append(
            f"warm hit rate {metrics['warm_hit_rate']:.1%} "
            f"< {MIN_WARM_HIT_RATE:.0%}"
        )
    if metrics["warm_speedup"] < MIN_WARM_SPEEDUP:
        problems.append(
            f"warm speedup {metrics['warm_speedup']:.1f}x "
            f"< {MIN_WARM_SPEEDUP:.0f}x"
        )
    return problems


def bench_serving_throughput(quick, report):
    lines, metrics = run_benchmark(smoke=quick)
    report("serving_throughput", lines)
    assert not check_gates(metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small request counts and a short calibration sweep",
    )
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(repo_root / "src"))

    lines, metrics = run_benchmark(smoke=args.smoke)
    text = "\n".join(lines)
    print(text)
    results = Path(__file__).resolve().parent / "results"
    results.mkdir(exist_ok=True)
    (results / "serving_throughput.txt").write_text(text + "\n")

    problems = check_gates(metrics)
    for problem in problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
