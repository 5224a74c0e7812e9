"""Shared fixtures for the infrastructure benchmarks.

Five benches gate CI: ``bench_serving_throughput`` (cache hit rate /
warm speedup), ``bench_wal_overhead`` (durable-write throughput),
``bench_plan_sweep`` (calibrate-once sweep speedup and byte-identity
against serial evaluation), ``bench_ingest`` (batched binary ingest vs
per-request writes, and no acknowledged loss under kill -9) and
``bench_scaleout`` (a replicated 4-shard cluster killed and recovered).
Each doubles as a standalone script with a ``--smoke`` flag (set
``REPRO_BENCH_QUICK=1`` for the same under pytest) and writes its table
to ``benchmarks/results/``.  The paper's figures and the model-quality
experiments are not benches: they are records of
``python -m repro.experiments.runner`` (``ACCURACY.json``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def quick() -> bool:
    """True when REPRO_BENCH_QUICK requests a fast smoke run."""
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


@pytest.fixture(scope="session")
def report():
    """Writer that prints a result table and stores it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, lines: list[str]) -> None:
        text = "\n".join(lines)
        print(f"\n=== {name} ===\n{text}")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return write
