"""Calibrate-once / evaluate-many plan-sweep engine.

The one calibration is :class:`~repro.core.calibration_cache.Calibration`
and the one memo of it the
:class:`~repro.core.calibration_cache.CalibrationCache`; this package
scores plans against it (ROADMAP: "score many candidate packing plans
per query"):

* :func:`~repro.sweep.kernel.evaluate_plans` — vectorized batch kernel,
  bitwise identical to the one-at-a-time path;
* :func:`~repro.sweep.pool.validate_plans` — process-pool fan-out for
  simulator-backed validation with deterministic per-plan seeds;

orchestrated by :class:`~repro.sweep.engine.PlanSweepEngine`.
``CalibrationArtifact`` (:mod:`repro.sweep.artifact`) is the
calibration's former name, kept as an alias.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "artifact": ("CalibrationArtifact",),
        "engine": ("PlanSweepEngine",),
        "kernel": ("estimate_plan_cpu", "evaluate_plans"),
        "pool": ("ValidationSpec", "plan_seed", "validate_plans"),
    },
)
