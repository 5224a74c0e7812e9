"""Fault injection: deterministic degraded-condition modelling.

This package supplies the three pieces of the observed-cluster
robustness story:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultEvent`,
  seeded deterministic schedules of crashes, stragglers, stream-manager
  stalls and metric dropouts (plus YAML loading for the CLI);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which threads a
  plan through :class:`~repro.heron.simulation.HeronSimulation` tick by
  tick;
* :mod:`repro.faults.health` — :func:`assess_topology_metrics`, the
  metrics-health check behind the API tier's structured 503s.

The modelling service's *own* storage failing (a torn write, a failed
fsync, a full disk) is not injected from here: those faults reach the
write-ahead log through its disk seam, :mod:`repro.durability.disk`.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "plan": ("load_fault_plan",),
    },
)
