"""The ``caladrius.bench/v1`` output document and ``BENCHMARK.json``."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy

from benchmarks.ledger import SCHEMA, inputs
from benchmarks.ledger.child import ROOT
from benchmarks.ledger.e2e import WorkloadResult
from benchmarks.ledger.workloads import Workload

BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def load_benchmark() -> dict[str, Any]:
    """The benchmark's contract: metric names, units, directions, bounds."""
    with open(BENCHMARK_JSON, encoding="utf8") as handle:
        return json.load(handle)


def machine() -> dict[str, Any]:
    """Fingerprint of the host; numbers compare only between equal ones."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        # What the run may use of them: one, once ``pin_to_one_cpu`` ran.
        "cpus": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, or ``None`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def build(
    seed: int,
    seconds: float,
    scale: float,
    sized: list[Workload],
    end_to_end: dict[str, WorkloadResult],
    per_layer: dict[str, WorkloadResult],
) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "machine": machine(),
        "git_sha": git_sha(),
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "flush_policy": inputs.FSYNC,
        "sizes": {workload.name: asdict(workload) for workload in sized},
        "workloads": {
            workload.name: {
                section: results[workload.name].as_dict()
                for section, results in (
                    ("end_to_end", end_to_end), ("per_layer", per_layer)
                )
                if workload.name in results
            }
            for workload in sized
        },
    }


def load(path: Path) -> dict[str, Any]:
    with open(path, encoding="utf8") as handle:
        data = json.load(handle)
    if data.get("schema") != SCHEMA:
        raise ValueError(f"{path} is not a {SCHEMA} document")
    return data
