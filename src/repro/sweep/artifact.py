"""The calibrate-once half of the plan-sweep engine.

A :class:`CalibrationArtifact` freezes every piece of metrics-derived
state a plan evaluation needs — the compiled topology model (fitted
per-instance curves, path set, rescaled-component memo), the
piecewise-linear fit statistics and per-bolt CPU coefficients — so
candidate parallelism plans can be scored without touching the metrics
store again.

Identity is content-addressed the same way the serving tier keys its
result cache: a ``(plan_revision, data_version)`` pair.  Calibration is
deterministic given the tracked topology revision and the store's write
counter, so equal pairs guarantee an equal artifact.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.calibration import PiecewiseLinearFit
from repro.core.calibration_cache import Calibration
from repro.core.cpu_model import CpuModel
from repro.core.performance_models import calibrate_topology
from repro.core.topology_model import TopologyModel
from repro.errors import ModelError
from repro.heron.topology import LogicalTopology
from repro.heron.tracker import TrackedTopology
from repro.serving.fingerprint import fingerprint
from repro.timeseries.store import MetricsStore

__all__ = ["CalibrationArtifact"]


@dataclass(frozen=True)
class CalibrationArtifact:
    """Immutable product of one calibration pass over stored metrics.

    Everything here derives deterministically from ``(topology at
    plan_revision, metrics at data_version)``; evaluating a candidate
    plan reads only this object.
    """

    topology_name: str
    cluster: str
    environ: str
    topology: LogicalTopology
    base: TopologyModel
    fits: Mapping[str, PiecewiseLinearFit]
    cpu_models: Mapping[str, CpuModel]
    plan_revision: int
    data_version: int
    warmup_minutes: int
    since_seconds: int | None = None

    @classmethod
    def build(
        cls,
        tracked: TrackedTopology,
        store: MetricsStore,
        warmup_minutes: int = 1,
        since_seconds: int | None = None,
        fit_cpu: bool = True,
    ) -> "CalibrationArtifact":
        """Run one calibration and freeze its products.

        The metrics ``data_version`` is read *before* calibrating so a
        concurrent write invalidates the artifact rather than leaking
        into a supposedly-consistent snapshot.
        """
        data_version = store.data_version(tracked.name)
        cpu_models: dict[str, CpuModel] | None = {} if fit_cpu else None
        base, fits = calibrate_topology(
            tracked, store, warmup_minutes=warmup_minutes,
            since_seconds=since_seconds, cpu_models=cpu_models,
        )
        calibration = Calibration(
            tracked, data_version, warmup_minutes, since_seconds,
            base, fits, cpu_models or {},
        )
        return cls.from_calibration(calibration, fit_cpu=fit_cpu)

    @classmethod
    def from_calibration(
        cls,
        calibration: Calibration,
        fit_cpu: bool = True,
    ) -> "CalibrationArtifact":
        """Freeze an existing calibration, without reading the store.

        A sweep after a prediction on unchanged data shares the
        prediction's calibration — the compiled model with its memo,
        throughput fits and per-bolt CPU coefficients (dropped when
        ``fit_cpu`` is false) alike, all from the one read of the store
        the calibration's stamp vouches for.
        """
        tracked = calibration.tracked
        topology = tracked.topology
        return cls(
            topology_name=tracked.name,
            cluster=tracked.cluster,
            environ=tracked.environ,
            topology=topology,
            base=calibration.base,
            fits=calibration.fits,
            cpu_models=calibration.cpu_models if fit_cpu else {},
            plan_revision=tracked.revision,
            data_version=calibration.data_version,
            warmup_minutes=calibration.warmup_minutes,
            since_seconds=calibration.since_seconds,
        )

    # ------------------------------------------------------------------
    # Identity / freshness
    # ------------------------------------------------------------------
    @property
    def artifact_hash(self) -> str:
        """Content hash of the calibration inputs (cache / audit key)."""
        return fingerprint(
            {
                "topology": self.topology_name,
                "cluster": self.cluster,
                "environ": self.environ,
                "plan_revision": self.plan_revision,
                "data_version": self.data_version,
                "warmup_minutes": self.warmup_minutes,
                "since_seconds": self.since_seconds,
            }
        )

    def is_current(self, tracked: TrackedTopology, store: MetricsStore) -> bool:
        """True while no write or redeploy has outdated the artifact."""
        return (
            tracked.revision == self.plan_revision
            and store.data_version(self.topology_name) == self.data_version
        )

    # ------------------------------------------------------------------
    # Per-plan derivations
    # ------------------------------------------------------------------
    def validate_plan(self, plan: Mapping[str, int]) -> dict[str, int]:
        """Normalize one candidate plan; reject unknown components."""
        normalized: dict[str, int] = {}
        for name, p in plan.items():
            if name not in self.topology.components:
                raise ModelError(
                    f"plan names unknown component {name!r} "
                    f"in topology {self.topology_name!r}"
                )
            p = int(p)
            if p < 1:
                raise ModelError(
                    f"plan parallelism for {name!r} must be >= 1, got {p}"
                )
            normalized[name] = p
        return normalized

    @property
    def paths(self) -> tuple[tuple[str, ...], ...]:
        """The source→sink path set (compiled with the model)."""
        return self.base.paths

    def model_for_plan(self, plan: Mapping[str, int]) -> TopologyModel:
        """The calibrated model rescaled to one candidate plan (Eq. 9).

        Exactly the rescaling the one-at-a-time serving path performs —
        the sweep's serial reference path calls this per plan.
        """
        return self.base.with_parallelism(plan)

    def plan_parallelisms(self, plan: Mapping[str, int]) -> dict[str, int]:
        """Full component→parallelism map for one plan (base + overrides)."""
        return {
            name: int(plan.get(name, spec.parallelism))
            for name, spec in self.topology.components.items()
        }

    def plan_total_instances(self, plan: Mapping[str, int]) -> int:
        """Instance count the plan would deploy."""
        return sum(self.plan_parallelisms(plan).values())
