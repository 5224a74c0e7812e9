"""Calibrate-once / evaluate-many orchestration.

:class:`PlanSweepEngine` turns a set of candidate plans into a ranked
sweep payload via the vectorized kernel, scoring them against the
topology's :class:`~repro.core.calibration_cache.Calibration` as the
:class:`~repro.core.calibration_cache.CalibrationCache` holds it — the
cache's stamp is the one freshness check.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.calibration_cache import Calibration, CalibrationCache
from repro.core.performance_models import (
    PerformancePrediction,
    evaluate_throughput,
)
from repro.heron.tracker import TopologyTracker
from repro.serving.fingerprint import canonical_json, fingerprint
from repro.sweep.kernel import estimate_plan_cpu, evaluate_plans
from repro.telemetry import readings
from repro.timeseries.store import MetricsStore

__all__ = ["PlanSweepEngine"]


class PlanSweepEngine:
    """Evaluate many candidate parallelism plans per calibration.

    Thread-safe: the serving tier's worker pool may issue concurrent
    sweeps.  A tracker revision bump (redeploy) or a metrics write (new
    minute) forces recalibration, nothing else does.

    ``calibrations`` is the service's shared
    :class:`~repro.core.calibration_cache.CalibrationCache`, so a sweep
    after a prediction on the same data reuses its calibration — CPU
    fits included — and reads no metrics; an engine built without one
    makes its own.  ``telemetry`` is the cache's registry: it keeps the
    ``sweep.sweep`` span.
    """

    def __init__(
        self,
        tracker: TopologyTracker,
        store: MetricsStore,
        calibrations: CalibrationCache | None = None,
    ) -> None:
        self.calibrations = calibrations or CalibrationCache(tracker, store)
        self.telemetry = self.calibrations.telemetry

    def artifact(
        self,
        topology_name: str,
        cluster: str = "local",
        environ: str = "test",
        since_seconds: int | None = None,
    ) -> Calibration:
        """The topology's current calibration, calibrating only on miss."""
        return self.calibrations.get(
            topology_name, cluster, environ, since_seconds
        )

    def stats(self) -> dict[str, int]:
        """The cache's calibration hits, misses and entries, under the
        names ``benchmarks/ledger`` reads."""
        calibration = readings(
            self.telemetry.snapshot("calibration."),
            "calibration.", "hits", "misses", "entries",
        )
        return {
            "artifact_hits": calibration["hits"],
            "artifact_misses": calibration["misses"],
            "cached_artifacts": calibration["entries"],
        }

    def evaluate_serial(
        self,
        artifact: Calibration,
        source_rate: float,
        plans: Sequence[Mapping[str, int]],
    ) -> list[PerformancePrediction]:
        """One-at-a-time reference path (equivalence oracle)."""
        return [
            evaluate_throughput(
                artifact.tracked.name,
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
            tracked = artifact.tracked
            normalized = [artifact.validate_plan(plan) for plan in plans]
            predictions = evaluate_plans(artifact, source_rate, normalized)
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
                    # Content hash of the calibration's inputs (audit key).
                    "hash": fingerprint(
                        {
                            "topology": tracked.name,
                            "cluster": tracked.cluster,
                            "environ": tracked.environ,
                            "plan_revision": tracked.revision,
                            "data_version": artifact.data_version,
                            "warmup_minutes": 1,  # calibrate_topology's
                            "since_seconds": artifact.since_seconds,
                        }
                    ),
                    "plan_revision": tracked.revision,
                    "data_version": artifact.data_version,
                    "calibrated_components": sorted(artifact.fits),
                    "cpu_models": sorted(artifact.cpu_models),
                },
                "ranked": entries,
            }
