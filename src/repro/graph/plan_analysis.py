"""Packing-plan property estimation over the physical graph.

Caladrius "provides a graph calculation interface for estimating
properties of proposed packing plans" (paper Section III-C1), and the
related-work schedulers it aims to evaluate optimise exactly these
properties: "minimize ... the network distance between operators that
communicate large tuples or very high volumes of tuples" and "ensure
that no worker nodes are overloaded".

Given a topology, a (proposed) packing plan and per-stream rates, this
module computes:

* how much traffic flows instance-to-instance *locally* (same container,
  one stream-manager hop) vs *remotely* (two stream managers + network);
* each container's stream-manager load (egress + ingress tuples/min);
* a JSON-friendly cost summary for comparing scheduler proposals.

Stream rates come from measurements or from a calibrated
:class:`~repro.core.topology_model.TopologyModel` via
:func:`stream_rates_from_propagation`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import GraphError
from repro.heron.packing import PackingPlan
from repro.heron.topology import LogicalTopology

__all__ = ["PlanCost", "analyse_plan", "stream_rates_from_propagation"]


@dataclass(frozen=True)
class PlanCost:
    """Estimated communication properties of one packing plan.

    Rates are in the unit of the input stream rates (typically tuples
    per minute).  ``stmgr_load`` maps container id to the total traffic
    its stream manager routes (instance egress plus instance ingress —
    a tuple crossing containers is counted at both ends, as it occupies
    both stream managers).
    """

    local_rate: float
    remote_rate: float
    stmgr_load: dict[int, float] = field(default_factory=dict)

    @property
    def total_rate(self) -> float:
        """All instance-to-instance traffic."""
        return self.local_rate + self.remote_rate

    @property
    def remote_fraction(self) -> float:
        """Share of traffic that crosses containers (network cost)."""
        if self.total_rate == 0:
            return 0.0
        return self.remote_rate / self.total_rate

    @property
    def max_stmgr_load(self) -> float:
        """The busiest stream manager's routed rate (hotspot check)."""
        return max(self.stmgr_load.values()) if self.stmgr_load else 0.0

    def summary(self) -> dict[str, object]:
        """A JSON-friendly report."""
        return {
            "local_rate": self.local_rate,
            "remote_rate": self.remote_rate,
            "remote_fraction": self.remote_fraction,
            "max_stmgr_load": self.max_stmgr_load,
            "stmgr_load": {str(k): v for k, v in self.stmgr_load.items()},
        }


def stream_rates_from_propagation(
    topology: LogicalTopology,
    propagation: Mapping[str, Mapping[str, object]],
) -> dict[tuple[str, str], float]:
    """Per-(component, stream) rates from a DAG propagation report.

    ``propagation`` is the output of
    :meth:`~repro.core.topology_model.TopologyModel.propagate`; the
    result maps ``(source component, stream name)`` to the stream's
    emitted rate, ready for :func:`analyse_plan`.
    """
    rates: dict[tuple[str, str], float] = {}
    for name, report in propagation.items():
        outputs = report.get("outputs", {})
        for stream_name, rate in outputs.items():  # type: ignore[union-attr]
            rates[(name, stream_name)] = float(rate)
    # Spouts in the propagation report emit their input as "outputs" too;
    # any declared stream missing from the report defaults to zero.
    for stream in topology.streams:
        rates.setdefault((stream.source, stream.name), 0.0)
    return rates


def analyse_plan(
    topology: LogicalTopology,
    packing: PackingPlan,
    stream_rates: Mapping[tuple[str, str], float],
) -> PlanCost:
    """Estimate a packing plan's communication costs.

    Parameters
    ----------
    topology:
        The logical topology (streams and groupings).
    packing:
        The physical plan to cost.  Parallelisms must match.
    stream_rates:
        ``(source component, stream name)`` → total emitted rate on that
        stream.  Upstream instances are assumed to emit evenly (the
        evaluation-spout and shuffle-input convention); downstream
        splits follow each stream's grouping shares.
    """
    local = 0.0
    remote = 0.0
    stmgr_load: dict[int, float] = {
        c.container_id: 0.0 for c in packing.containers
    }
    for stream in topology.streams:
        key = (stream.source, stream.name)
        if key not in stream_rates:
            raise GraphError(
                f"no rate provided for stream {stream.name!r} of "
                f"{stream.source!r}"
            )
        rate = float(stream_rates[key])
        if rate < 0:
            raise GraphError("stream rates must be non-negative")
        senders = packing.instances_of(stream.source)
        receivers = packing.instances_of(stream.destination)
        if packing.parallelism(stream.source) != topology.parallelism(
            stream.source
        ):
            raise GraphError(
                f"packing parallelism mismatch for {stream.source!r}"
            )
        shares = stream.grouping.shares(len(receivers))
        per_sender = rate / len(senders)
        for sender in senders:
            for j, receiver in enumerate(receivers):
                flow = per_sender * float(shares[j])
                if flow == 0.0:
                    continue
                stmgr_load[sender.container_id] += flow
                if receiver.container_id == sender.container_id:
                    local += flow
                else:
                    remote += flow
                    stmgr_load[receiver.container_id] += flow
    return PlanCost(local, remote, stmgr_load)
