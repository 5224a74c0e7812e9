"""Calibrate-once / evaluate-many orchestration.

:class:`PlanSweepEngine` owns the artifact cache (one
:class:`~repro.sweep.artifact.CalibrationArtifact` per topology,
validated against the tracker revision and the metrics store's
``data_version`` on every use) and turns a set of candidate plans into
a ranked sweep payload via the vectorized kernel.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence

from repro.core.calibration_cache import CalibrationCache
from repro.core.performance_models import (
    PerformancePrediction,
    evaluate_throughput,
)
from repro.heron.tracker import TopologyTracker
from repro.serving.fingerprint import canonical_json
from repro.sweep.artifact import CalibrationArtifact
from repro.sweep.kernel import estimate_plan_cpu, evaluate_plans
from repro.telemetry import Telemetry, readings
from repro.timeseries.store import MetricsStore

__all__ = ["PlanSweepEngine"]


class PlanSweepEngine:
    """Evaluate many candidate parallelism plans per calibration.

    Thread-safe: the serving tier's worker pool may issue concurrent
    sweeps.  Artifacts are cached per (topology, cluster, environ,
    since) and revalidated on every access — a tracker revision bump
    (redeploy) or a metrics write (new minute) forces recalibration,
    nothing else does.

    ``calibrations`` is the service's shared
    :class:`~repro.core.calibration_cache.CalibrationCache`: with one, a
    new artifact reuses the calibration a prediction on the same data
    already made — its CPU fits included — and reads no metrics;
    without one it calibrates itself.

    ``telemetry`` keeps the ``sweep.*`` counters, the artifact gauge and
    the ``sweep.sweep`` span.
    """

    def __init__(
        self,
        tracker: TopologyTracker,
        store: MetricsStore,
        warmup_minutes: int = 1,
        fit_cpu: bool = True,
        calibrations: CalibrationCache | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.tracker = tracker
        self.store = store
        self.warmup_minutes = warmup_minutes
        self.fit_cpu = fit_cpu
        self.calibrations = calibrations
        self._lock = threading.Lock()
        self._artifacts: dict[tuple, CalibrationArtifact] = {}
        self.telemetry = telemetry = telemetry or Telemetry()
        telemetry.gauges("sweep.", lambda: {"cached_artifacts": len(self._artifacts)})

    # ------------------------------------------------------------------
    # Artifact lifecycle
    # ------------------------------------------------------------------
    def artifact(
        self,
        topology_name: str,
        cluster: str = "local",
        environ: str = "test",
        since_seconds: int | None = None,
    ) -> CalibrationArtifact:
        """A current artifact for the topology, calibrating only on miss."""
        tracked = self.tracker.get(topology_name, cluster, environ)
        key = (topology_name, cluster, environ, since_seconds)
        with self._lock:
            cached = self._artifacts.get(key)
            if cached is not None and cached.is_current(tracked, self.store):
                self.telemetry.count("sweep.artifact_hits")
                return cached
        if self.calibrations is None:
            built = CalibrationArtifact.build(
                tracked,
                self.store,
                warmup_minutes=self.warmup_minutes,
                since_seconds=since_seconds,
                fit_cpu=self.fit_cpu,
            )
        else:
            built = CalibrationArtifact.from_calibration(
                self.calibrations.get(
                    topology_name, cluster, environ,
                    self.warmup_minutes, since_seconds,
                ),
                fit_cpu=self.fit_cpu,
            )
        with self._lock:
            self._artifacts[key] = built
            self.telemetry.count("sweep.artifact_misses")
        return built

    def invalidate(self, topology_name: str | None = None) -> None:
        """Drop cached artifacts (all, or one topology's)."""
        with self._lock:
            if topology_name is None:
                self._artifacts.clear()
            else:
                self._artifacts = {
                    key: value
                    for key, value in self._artifacts.items()
                    if key[0] != topology_name
                }

    def stats(self) -> dict[str, int]:
        """Artifact-cache hit/miss counters and size, read from the
        registry (``benchmarks/ledger`` reads this view)."""
        return readings(self.telemetry.snapshot("sweep."), "sweep.",
                        "artifact_hits", "artifact_misses", "cached_artifacts")

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_batch(
        self,
        artifact: CalibrationArtifact,
        source_rate: float,
        plans: Sequence[Mapping[str, int]],
    ) -> list[PerformancePrediction]:
        """All plans through the vectorized kernel (the fast path)."""
        return evaluate_plans(artifact, source_rate, plans)

    def evaluate_serial(
        self,
        artifact: CalibrationArtifact,
        source_rate: float,
        plans: Sequence[Mapping[str, int]],
    ) -> list[PerformancePrediction]:
        """One-at-a-time reference path (equivalence oracle)."""
        return [
            evaluate_throughput(
                artifact.topology_name,
                artifact.model_for_plan(artifact.validate_plan(plan)),
                artifact.fits,
                float(source_rate),
            )
            for plan in plans
        ]

    def sweep(
        self,
        topology_name: str,
        source_rate: float,
        plans: Sequence[Mapping[str, int]],
        cluster: str = "local",
        environ: str = "test",
        top_k: int | None = None,
        since_seconds: int | None = None,
    ) -> dict[str, object]:
        """Rank candidate plans by predicted output rate.

        Ties break on the canonical JSON of the plan so the ranking is
        fully deterministic (and byte-identical between the batch and
        serial paths).
        """
        with self.telemetry.span("sweep.sweep"):
            artifact = self.artifact(
                topology_name, cluster, environ, since_seconds
            )
            normalized = [artifact.validate_plan(plan) for plan in plans]
            predictions = self.evaluate_batch(artifact, source_rate, normalized)
            cpu = estimate_plan_cpu(artifact, predictions)
            entries = []
            for plan, prediction, cores in zip(normalized, predictions, cpu):
                entries.append(
                    {
                        "plan": plan,
                        "parallelisms": prediction.parallelisms,
                        "total_instances": artifact.plan_total_instances(plan),
                        "output_rate": prediction.output_rate,
                        "output_rate_interval": list(
                            prediction.output_rate_interval
                        ),
                        "saturation_source_rate": (
                            prediction.saturation_source_rate
                        ),
                        "backpressure_risk": prediction.backpressure_risk,
                        "bottleneck": prediction.bottleneck,
                        "estimated_cpu_cores": cores,
                    }
                )
            entries.sort(
                key=lambda e: (-e["output_rate"], canonical_json(e["plan"]))
            )
            for rank, entry in enumerate(entries, start=1):
                entry["rank"] = rank
            if top_k is not None:
                entries = entries[: max(0, int(top_k))]
            return {
                "topology": topology_name,
                "model": "plan-sweep",
                "source_rate": float(source_rate),
                "plan_count": len(normalized),
                "artifact": {
                    "hash": artifact.artifact_hash,
                    "plan_revision": artifact.plan_revision,
                    "data_version": artifact.data_version,
                    "calibrated_components": sorted(artifact.fits),
                    "cpu_models": sorted(artifact.cpu_models),
                },
                "ranked": entries,
            }
