"""One calibration per topology and data version, shared by every consumer.

The paper's dry-run flow is *calibrate once from stored metrics, then
evaluate any traffic level or parallelism in closed form*.
:meth:`Calibration.build` is the calibrating (the model tier's one call
of :func:`~repro.core.performance_models.calibrate_topology`), and
:class:`CalibrationCache` is the "once": a topology's
:class:`Calibration` is kept under the ``(plan_revision, data_version)``
stamp it was fitted at, and predictions, plan sweeps, the guided scaler
and the serving tier's re-warm path all draw from a cache — the service
builds one for all of them; a model or sweep engine built alone makes
its own.  The metrics-health verdict that gates every modelling request
is kept under the same stamp.

The stamp is read **before** computing and compared on **every** lookup:
a write that lands while the store is being read leaves the entry
stamped older than the data it saw, so the next lookup recomputes instead
of trusting a torn snapshot.  A computation that raises (too few usable
minutes, an expired deadline) stores nothing.  Concurrent misses may both
compute; calibration is deterministic given the stamp, so whichever
store lands last holds an equal value.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.core.calibration import PiecewiseLinearFit
from repro.core.cpu_model import CpuModel
from repro.core.performance_models import calibrate_topology
from repro.core.topology_model import TopologyModel
from repro.errors import ModelError
from repro.faults.health import MetricsHealth, assess_topology_metrics
from repro.heron.topology import is_count
from repro.heron.tracker import TopologyTracker, TrackedTopology
from repro.telemetry import Telemetry
from repro.timeseries.store import MetricsStore

__all__ = ["Calibration", "CalibrationCache"]

T = TypeVar("T")


@dataclass(frozen=True)
class Calibration:
    """A fitted topology model and the stamp of the inputs it was fitted on.

    ``cpu_models`` (per bolt, what a plan sweep adds to a prediction) is
    fitted from the same read of the store as ``fits``.  Everything a
    candidate plan's evaluation needs is here, so scoring plans reads
    the store no more.
    """

    tracked: TrackedTopology
    data_version: int
    since_seconds: int | None
    base: TopologyModel
    fits: dict[str, PiecewiseLinearFit]
    cpu_models: dict[str, CpuModel]

    @classmethod
    def build(
        cls,
        tracked: TrackedTopology,
        store: MetricsStore,
        since_seconds: int | None = None,
    ) -> "Calibration":
        """Calibrate ``tracked`` from ``store`` once (after a one-minute
        warmup, from ``since_seconds`` on).

        The ``data_version`` is read *before* the store is, so a write
        that lands meanwhile leaves the calibration stamped older than
        the data it saw, never newer.
        """
        data_version = store.data_version(tracked.name)
        cpu_models: dict[str, CpuModel] = {}
        base, fits = calibrate_topology(
            tracked, store, since_seconds=since_seconds, cpu_models=cpu_models
        )
        return cls(tracked, data_version, since_seconds, base, fits, cpu_models)

    @property
    def paths(self) -> tuple[tuple[str, ...], ...]:
        """The source→sink path set (compiled with the model)."""
        return self.base.paths

    def validate_plan(self, plan: Any) -> dict[str, int]:
        """One candidate plan, checked: a mapping of known components to
        integer parallelisms of at least 1 — the rule the HTTP tier
        applies to a request's plans."""
        if not isinstance(plan, Mapping):
            raise ModelError(
                "each plan must map component names to integer parallelisms"
            )
        known = self.tracked.topology.components  # a copy per read
        for name, p in plan.items():
            if name not in known:
                raise ModelError(
                    f"plan names unknown component {name!r} "
                    f"in topology {self.tracked.name!r}"
                )
            if not is_count(p):
                raise ModelError(
                    f"plan parallelism for {name!r} must be an integer, got {p!r}"
                )
            if p < 1:
                raise ModelError(
                    f"plan parallelism for {name!r} must be >= 1, got {p}"
                )
        return dict(plan)

    def model_for_plan(self, plan: Mapping[str, int]) -> TopologyModel:
        """The calibrated model rescaled to one candidate plan (Eq. 9),
        as a prediction with that plan rescales it."""
        return self.base.with_parallelism(plan)

    def plan_parallelisms(self, plan: Mapping[str, int]) -> dict[str, int]:
        """Full component→parallelism map for one plan (base + overrides)."""
        return {
            name: int(plan.get(name, spec.parallelism))
            for name, spec in self.tracked.topology.components.items()
        }

    def plan_total_instances(self, plan: Mapping[str, int]) -> int:
        """Instance count the plan would deploy."""
        return sum(self.plan_parallelisms(plan).values())


class CalibrationCache:
    """Stamped memo of per-topology calibrations and health verdicts.

    One entry of each kind per ``(topology, cluster, environ)``, so the
    size is bounded by the tracked topologies; a lookup with another
    window (``since_seconds``), revision or data version replaces the
    entry.  Thread-safe.  ``telemetry`` keeps the
    ``calibration.*`` counters, the entry gauge and the
    ``calibration.fit`` span (one per miss).
    """

    def __init__(
        self,
        tracker: TopologyTracker,
        store: MetricsStore,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.tracker = tracker
        self.store = store
        self._lock = threading.Lock()
        self._calibrations: dict[tuple[str, str, str], tuple[tuple, Calibration]] = {}
        self._health: dict[tuple[str, str, str], tuple[tuple, MetricsHealth]] = {}
        self.telemetry = telemetry = telemetry or Telemetry()
        telemetry.gauges("calibration.", lambda: {"entries": len(self._calibrations)})

    def get(
        self,
        topology_name: str,
        cluster: str = "local",
        environ: str = "test",
        since_seconds: int | None = None,
    ) -> Calibration:
        """The topology's calibration at its current stamp, fitting on miss."""

        def calibrate(tracked: TrackedTopology) -> Calibration:
            with self.telemetry.span("calibration.fit"):
                return Calibration.build(tracked, self.store, since_seconds)

        calibration, hit = self._lookup(
            self._calibrations, (topology_name, cluster, environ),
            (since_seconds,), calibrate,
        )
        self.telemetry.count("calibration.hits" if hit else "calibration.misses")
        return calibration

    def health(
        self,
        topology_name: str,
        degraded_threshold: float,
        cluster: str = "local",
        environ: str = "test",
    ) -> MetricsHealth:
        """:func:`~repro.faults.health.assess_topology_metrics` at the
        topology's current stamp."""

        def assess(tracked: TrackedTopology) -> MetricsHealth:
            return assess_topology_metrics(
                self.store,
                topology_name,
                [spout.name for spout in tracked.topology.spouts()],
                degraded_threshold=degraded_threshold,
            )

        verdict, _ = self._lookup(
            self._health, (topology_name, cluster, environ),
            (degraded_threshold,), assess,
        )
        return verdict

    def _lookup(
        self,
        entries: dict[tuple[str, str, str], tuple[tuple, T]],
        key: tuple[str, str, str],
        variant: tuple,
        compute: Callable[[TrackedTopology], T],
    ) -> tuple[T, bool]:
        name, cluster, environ = key
        tracked = self.tracker.get(name, cluster, environ)
        data_version = self.store.data_version(name)
        stamp = (*variant, tracked.revision, data_version)
        with self._lock:
            cached = entries.get(key)
        if cached is not None and cached[0] == stamp:
            return cached[1], True
        value = compute(tracked)
        with self._lock:
            entries[key] = (stamp, value)
        return value, False
