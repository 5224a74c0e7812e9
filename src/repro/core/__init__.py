"""Caladrius core: the paper's performance models (Section IV).

This package is the primary contribution being reproduced:

* :mod:`~repro.core.instance_model` — Eq. 1-5: the piecewise-linear
  single-instance throughput model ``T(t) = min(alpha * t, ST)`` and its
  multi-input / multi-output generalisations.
* :mod:`~repro.core.component_model` — Eq. 6-11: component-level rollups,
  parallelism scaling under shuffle and fields groupings, and traffic
  scaling at fixed parallelism.
* :mod:`~repro.core.topology_model` — Eq. 12-14: critical-path chaining,
  the inverse model that locates a topology's saturation point, and
  backpressure-risk classification.
* :mod:`~repro.core.calibration` — segmented regression that recovers
  ``alpha``/``SP``/``ST`` (and CPU slopes) from observed metrics.
* :mod:`~repro.core.cpu_model` — the Section V-E CPU-load use case.
* :mod:`~repro.core.traffic_models` / :mod:`~repro.core.performance_models`
  — the Caladrius model-tier interfaces that tie forecasting, metrics and
  the analytical models together behind the API tier.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "performance_models": (
            "BackpressureEvaluationModel", "ThroughputPredictionModel",
        ),
        "traffic_models": ("ProphetTrafficModel",),
    },
)
