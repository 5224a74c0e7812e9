"""Topology metadata service: the Heron Tracker substitute.

The Heron Tracker "continuously gathers information about Heron topologies
running on a cluster, including information about their running status,
logical representations and resource allocations, and exposes a RESTful
API" (paper Section III-C1).  Caladrius reads topology graphs from it and
caches them, invalidating on update.

:class:`TopologyTracker` is the in-process version of that service; the
REST surface over it lives in :mod:`repro.api`.  It also implements the
metadata-freshness contract the paper describes: every registration or
update bumps a monotonically increasing revision, so cached graph state
can be invalidated precisely.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import TopologyError
from repro.heron.packing import PackingPlan
from repro.heron.topology import LogicalTopology

__all__ = ["TrackedTopology", "TopologyTracker"]


@dataclass(frozen=True)
class TrackedTopology:
    """One registered topology: plans plus tracker bookkeeping."""

    topology: LogicalTopology
    packing: PackingPlan
    cluster: str
    environ: str
    revision: int

    @property
    def name(self) -> str:
        """The topology name."""
        return self.topology.name

    def logical_plan(self) -> dict[str, object]:
        """A JSON-friendly logical plan, Tracker-style."""
        spouts = {
            c.name: {"parallelism": c.parallelism}
            for c in self.topology.spouts()
        }
        bolts = {}
        for bolt in self.topology.bolts():
            bolts[bolt.name] = {
                "parallelism": bolt.parallelism,
                "inputs": [
                    {
                        "component": s.source,
                        "stream": s.name,
                        "grouping": s.grouping.name,
                    }
                    for s in self.topology.inputs(bolt.name)
                ],
            }
        return {"name": self.name, "spouts": spouts, "bolts": bolts}

    def packing_plan(self) -> dict[str, object]:
        """A JSON-friendly packing plan, Tracker-style."""
        return self.packing.summary()


class TopologyTracker:
    """An in-memory registry of running topologies.

    Thread-safe: the API tier serves requests from worker threads while
    experiments register and update topologies.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._topologies: dict[tuple[str, str, str], TrackedTopology] = {}
        self._revision = 0
        self._listeners: list[Callable[[str], None]] = []

    def _key(self, cluster: str, environ: str, name: str) -> tuple[str, str, str]:
        return (cluster, environ, name)

    def register(
        self,
        topology: LogicalTopology,
        packing: PackingPlan,
        cluster: str = "local",
        environ: str = "test",
    ) -> TrackedTopology:
        """Register (or re-register) a topology and return its record."""
        if packing.topology_name != topology.name:
            raise TopologyError(
                "packing plan belongs to "
                f"{packing.topology_name!r}, not {topology.name!r}"
            )
        with self._lock:
            self._revision += 1
            tracked = TrackedTopology(
                topology, packing, cluster, environ, self._revision
            )
            self._topologies[self._key(cluster, environ, topology.name)] = tracked
            listeners = list(self._listeners)
        for listener in listeners:
            listener(topology.name)
        return tracked

    def update(
        self,
        name: str,
        topology: LogicalTopology,
        packing: PackingPlan,
        cluster: str = "local",
        environ: str = "test",
    ) -> TrackedTopology:
        """Replace a registered topology's plans (a deployed scaling).

        The new record gets a fresh revision, signalling cached graph
        state to invalidate (the paper's graph-metadata component).
        """
        key = self._key(cluster, environ, name)
        with self._lock:
            if key not in self._topologies:
                raise TopologyError(f"topology {name!r} is not registered")
            if topology.name != name:
                raise TopologyError(
                    f"cannot update {name!r} with topology {topology.name!r}"
                )
            self._revision += 1
            tracked = TrackedTopology(
                topology, packing, cluster, environ, self._revision
            )
            self._topologies[key] = tracked
            listeners = list(self._listeners)
        for listener in listeners:
            listener(name)
        return tracked

    def get(
        self,
        name: str,
        cluster: str = "local",
        environ: str = "test",
    ) -> TrackedTopology:
        """The record for one topology (raises when unknown)."""
        with self._lock:
            record = self._topologies.get(self._key(cluster, environ, name))
        if record is None:
            raise TopologyError(
                f"topology {name!r} is not registered in "
                f"{cluster}/{environ}"
            )
        return record

    def topologies(self) -> list[TrackedTopology]:
        """Every registered topology."""
        with self._lock:
            return list(self._topologies.values())

    def names(self) -> list[str]:
        """Sorted names of registered topologies."""
        with self._lock:
            return sorted(t.name for t in self._topologies.values())

    def revision_of(
        self,
        name: str,
        cluster: str = "local",
        environ: str = "test",
    ) -> int:
        """The registered revision (cache-invalidation token)."""
        return self.get(name, cluster, environ).revision

    def add_listener(self, listener: Callable[[str], None]) -> None:
        """Call ``listener(name)`` after every register/update.

        Listeners run outside the tracker lock; the serving tier uses
        them to invalidate cached modelling results on plan changes.
        """
        with self._lock:
            self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[str], None]) -> None:
        """Unsubscribe a previously added listener (idempotent)."""
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)
