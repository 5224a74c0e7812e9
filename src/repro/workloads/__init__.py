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

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "generator": (
            "SHAPES", "GeneratedWorkload", "GeneratorParams",
            "generate_workload", "workload_seed",
        ),
        "matrix": (
            "DEFAULT_THRESHOLDS", "REPORT_SCHEMA", "MatrixCell",
            "build_report", "cell_seed", "default_grid", "report_json",
            "run_cell", "run_matrix",
        ),
        "scenarios": ("FAULTS", "TRAFFICS"),
        "trace": ("golden_trace_payload", "trace_hash", "workload_trace"),
    },
)
