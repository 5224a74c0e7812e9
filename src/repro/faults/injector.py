"""Driving a fault plan through a running simulation.

The :class:`FaultInjector` is the bridge between a declarative
:class:`~repro.faults.plan.FaultPlan` and the simulator's control
surface.  :class:`~repro.heron.simulation.HeronSimulation` calls
:meth:`FaultInjector.on_tick` at the start of every tick; the injector
activates events whose start time has arrived and reverts events whose
window has closed, using only the simulation's public control methods
(crash/restore, capacity factors, stream-manager stalls, metric
blackouts).  All bookkeeping is deterministic — no clocks, no
randomness — so a seeded plan yields byte-identical runs.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.errors import FaultError
from repro.faults.plan import (
    KIND_CRASH,
    KIND_METRIC_DROPOUT,
    KIND_STMGR_STALL,
    KIND_STRAGGLER,
    FaultEvent,
    FaultPlan,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.heron.simulation import HeronSimulation

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies a fault plan to a simulation, tick by tick.

    Parameters
    ----------
    plan:
        The schedule to execute.  Events are validated against the
        simulation's topology when the injector is attached (see
        :meth:`attach`), so impossible targets fail fast rather than
        mid-run.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._pending: deque[FaultEvent] = deque(plan.events)
        self._active: list[FaultEvent] = []
        self._log: list[tuple[float, str, FaultEvent]] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def log(self) -> list[tuple[float, str, FaultEvent]]:
        """Chronological ``(sim_seconds, "inject"|"recover", event)`` log."""
        return list(self._log)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def attach(self, sim: "HeronSimulation") -> None:
        """Validate every event against the simulation's topology."""
        topology = sim.topology
        container_ids = {c.container_id for c in sim.packing.containers}
        for event in self.plan.events:
            if event.kind in (KIND_CRASH, KIND_STRAGGLER):
                if event.component not in topology.components:
                    raise FaultError(
                        f"fault targets unknown component {event.component!r}"
                    )
                parallelism = topology.parallelism(event.component)
                if not 0 <= event.index < parallelism:
                    raise FaultError(
                        f"component {event.component!r} has no instance "
                        f"index {event.index} (parallelism {parallelism})"
                    )
                if (
                    event.kind == KIND_STRAGGLER
                    and topology.components[event.component].is_spout
                ):
                    raise FaultError(
                        "straggler faults target bolts; "
                        f"{event.component!r} is a spout"
                    )
            elif event.kind == KIND_STMGR_STALL:
                if event.container not in container_ids:
                    raise FaultError(
                        f"fault targets unknown container {event.container}"
                    )
            elif event.kind == KIND_METRIC_DROPOUT:
                if (
                    event.component is not None
                    and event.component not in topology.components
                ):
                    raise FaultError(
                        f"fault targets unknown component {event.component!r}"
                    )

    # ------------------------------------------------------------------
    # Tick hook
    # ------------------------------------------------------------------
    def on_tick(self, sim: "HeronSimulation") -> None:
        """Activate due events and recover expired ones at ``sim.now``."""
        now = sim.now
        still_active: list[FaultEvent] = []
        for event in self._active:
            if event.ends_at <= now:
                self._revert(sim, event)
                self._log.append((now, "recover", event))
            else:
                still_active.append(event)
        self._active = still_active
        while self._pending and self._pending[0].at_seconds <= now:
            event = self._pending.popleft()
            if event.ends_at <= now:
                continue  # window entirely in the past; nothing to do
            self._apply(sim, event)
            self._log.append((now, "inject", event))
            self._active.append(event)

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def _apply(self, sim: "HeronSimulation", event: FaultEvent) -> None:
        if event.kind == KIND_CRASH:
            sim.crash_instance(event.component, event.index)
        elif event.kind == KIND_STRAGGLER:
            sim.set_instance_capacity_factor(
                event.component, event.index, event.factor
            )
        elif event.kind == KIND_STMGR_STALL:
            sim.stall_stream_manager(event.container)
        elif event.kind == KIND_METRIC_DROPOUT:
            sim.set_metric_dropout(event.component, event.index, active=True)

    def _revert(self, sim: "HeronSimulation", event: FaultEvent) -> None:
        if event.kind == KIND_CRASH:
            sim.restore_instance(event.component, event.index)
        elif event.kind == KIND_STRAGGLER:
            sim.set_instance_capacity_factor(event.component, event.index, 1.0)
        elif event.kind == KIND_STMGR_STALL:
            sim.resume_stream_manager(event.container)
        elif event.kind == KIND_METRIC_DROPOUT:
            sim.set_metric_dropout(event.component, event.index, active=False)
