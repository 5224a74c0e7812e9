"""Fault injection: deterministic degraded-condition modelling.

This package supplies the three pieces of the robustness story:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultEvent`,
  seeded deterministic schedules of crashes, stragglers, stream-manager
  stalls and metric dropouts (plus YAML loading for the CLI);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which threads a
  plan through :class:`~repro.heron.simulation.HeronSimulation` tick by
  tick;
* :mod:`repro.faults.health` — :func:`assess_topology_metrics`, the
  metrics-health check behind the API tier's structured 503s;
* :mod:`repro.faults.service` — :class:`ServiceFaultInjector`,
  storage-layer faults (torn write, fsync error, disk full) driving the
  durability subsystem's crash-recovery tests.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "plan": ("load_fault_plan",),
        "service": (
            "ServiceFault", "ServiceFaultInjector", "parse_service_fault_spec",
        ),
    },
)
