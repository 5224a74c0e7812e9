"""One calibration per topology and data version, shared by every consumer.

The paper's dry-run flow is *calibrate once from stored metrics, then
evaluate any traffic level or parallelism in closed form*.
:class:`CalibrationCache` is the "once": the fitted
:class:`~repro.core.topology_model.TopologyModel` of a topology is kept
under the ``(plan_revision, data_version)`` stamp it was fitted at, and
predictions, plan sweeps and the serving tier's re-warm path all draw
from the one instance the service builds.  The metrics-health verdict
that gates every modelling request is kept under the same stamp.

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
from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

from repro.core.calibration import PiecewiseLinearFit
from repro.core.cpu_model import CpuModel
from repro.core.performance_models import calibrate_topology
from repro.core.topology_model import TopologyModel
from repro.faults.health import MetricsHealth, assess_topology_metrics
from repro.heron.tracker import TopologyTracker, TrackedTopology
from repro.telemetry import Telemetry
from repro.timeseries.store import MetricsStore

__all__ = ["Calibration", "CalibrationCache"]

T = TypeVar("T")


@dataclass(frozen=True)
class Calibration:
    """A fitted topology model and the stamp of the inputs it was fitted on.

    ``cpu_models`` (per bolt, what a plan sweep adds to a prediction) is
    fitted from the same read of the store as ``fits``.
    """

    tracked: TrackedTopology
    data_version: int
    warmup_minutes: int
    since_seconds: int | None
    base: TopologyModel
    fits: dict[str, PiecewiseLinearFit]
    cpu_models: dict[str, CpuModel]


class CalibrationCache:
    """Stamped memo of per-topology calibrations and health verdicts.

    One entry of each kind per ``(topology, cluster, environ)``, so the
    size is bounded by the tracked topologies; a lookup with another
    window (``since_seconds`` / ``warmup_minutes``), revision or data
    version replaces the entry.  Thread-safe.  ``telemetry`` keeps the
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
        warmup_minutes: int = 1,
        since_seconds: int | None = None,
    ) -> Calibration:
        """The topology's calibration at its current stamp, fitting on miss."""

        def calibrate(tracked: TrackedTopology, data_version: int) -> Calibration:
            cpu_models: dict[str, CpuModel] = {}
            with self.telemetry.span("calibration.fit"):
                base, fits = calibrate_topology(
                    tracked, self.store, warmup_minutes=warmup_minutes,
                    since_seconds=since_seconds, cpu_models=cpu_models,
                )
            return Calibration(
                tracked, data_version, warmup_minutes, since_seconds,
                base, fits, cpu_models,
            )

        calibration, hit = self._lookup(
            self._calibrations, (topology_name, cluster, environ),
            (warmup_minutes, since_seconds), calibrate,
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

        def assess(tracked: TrackedTopology, data_version: int) -> MetricsHealth:
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
        compute: Callable[[TrackedTopology, int], T],
    ) -> tuple[T, bool]:
        name, cluster, environ = key
        tracked = self.tracker.get(name, cluster, environ)
        data_version = self.store.data_version(name)
        stamp = (*variant, tracked.revision, data_version)
        with self._lock:
            cached = entries.get(key)
        if cached is not None and cached[0] == stamp:
            return cached[1], True
        value = compute(tracked, data_version)
        with self._lock:
            entries[key] = (stamp, value)
        return value, False
