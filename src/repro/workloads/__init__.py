"""Workload-diversity matrix: generator + scenario differential tests.

The package that turns "as many scenarios as you can imagine" into an
enforced grid (ROADMAP: the PDSP-Bench-style workload matrix):

* :mod:`repro.workloads.generator` — seeded parameterized topology
  generator (diamond, fan-in join, deep chain, multi-spout fan-out) with
  windowed/stateful bolt profiles, Zipf-skewed fields groupings and
  auto-assigned capacities;
* :mod:`repro.workloads.scenarios` — traffic patterns and canonical
  per-cell fault plans over the existing fault kinds;
* :mod:`repro.workloads.trace` — canonical simulation traces and the
  SHA-256 regression hashes behind the golden fixtures;
* :mod:`repro.workloads.matrix` — the (shape × fault × traffic) runner
  producing ``matrix_report.json`` with per-cell calibration MAPE and
  regression thresholds (the ``caladrius matrix`` command).
"""

from repro.workloads.generator import (
    SHAPES,
    GeneratedWorkload,
    GeneratorParams,
    generate_workload,
    workload_seed,
)
from repro.workloads.matrix import (
    DEFAULT_THRESHOLDS,
    REPORT_SCHEMA,
    MatrixCell,
    build_report,
    cell_seed,
    default_grid,
    report_json,
    run_cell,
    run_matrix,
)
from repro.workloads.scenarios import (
    FAULTS,
    TRAFFICS,
    fault_plan_for,
    traffic_schedule,
)
from repro.workloads.trace import (
    canonical_store_trace,
    config_trace,
    golden_trace_payload,
    trace_hash,
    workload_trace,
)

__all__ = [
    "SHAPES",
    "FAULTS",
    "TRAFFICS",
    "DEFAULT_THRESHOLDS",
    "REPORT_SCHEMA",
    "GeneratedWorkload",
    "GeneratorParams",
    "MatrixCell",
    "build_report",
    "canonical_store_trace",
    "config_trace",
    "cell_seed",
    "default_grid",
    "fault_plan_for",
    "generate_workload",
    "golden_trace_payload",
    "report_json",
    "run_cell",
    "run_matrix",
    "trace_hash",
    "traffic_schedule",
    "workload_seed",
    "workload_trace",
]
