"""Canonical simulation traces and their regression hashes.

The simulator's determinism contract — same (workload, schedule, seed)
in, byte-identical metrics out — is the foundation the whole matrix
stands on: a cell whose trace hash changed is a cell whose simulation
changed, whatever its calibration error says.  This module turns a run
into a canonical, JSON-stable trace and hashes it, powering both the
committed golden fixtures under ``tests/data/`` and the per-cell
``trace_hash`` field of ``matrix_report.json``.

Canonical form: per component, the full per-minute ``execute-count``
series (timestamps and values as plain Python numbers), plus the
topology backpressure series; serialised with sorted keys and no
whitespace, hashed with SHA-256.  Float values pass through ``repr``
via ``json`` — exact for IEEE doubles — so the hash is sensitive to
any numeric drift, not just gross breakage.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from typing import Any

from repro.heron.metrics import MetricNames
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.timeseries.store import MetricsStore
from repro.workloads.generator import GeneratedWorkload, generate_workload

__all__ = [
    "canonical_store_trace",
    "workload_trace",
    "trace_hash",
    "golden_trace_payload",
    "config_trace",
]


def canonical_store_trace(store: MetricsStore, topology) -> dict[str, Any]:
    """Canonical per-component series from an existing metrics store.

    Spouts contribute their ``emit-count``, bolts their
    ``execute-count``, plus the topology backpressure gauge — the
    signals whose drift would change every downstream calibration.
    """
    series: dict[str, Any] = {}
    for name, spec in topology.components.items():
        component_series = store.aggregate(
            MetricNames.EMIT_COUNT if spec.is_spout
            else MetricNames.EXECUTE_COUNT,
            {"topology": topology.name, "component": name},
        )
        series[name] = {
            "timestamps": [int(t) for t in component_series.timestamps],
            "values": [float(v) for v in component_series.values],
        }
    backpressure = store.get(
        MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS,
        {"topology": topology.name},
    )
    return {
        "series": series,
        "backpressure_ms": {
            "timestamps": [int(t) for t in backpressure.timestamps],
            "values": [float(v) for v in backpressure.values],
        },
    }


def workload_trace(
    workload: GeneratedWorkload,
    schedule_tpm: Sequence[float],
    seed: int = 0,
) -> dict[str, Any]:
    """Run one workload through a rate schedule and canonicalise it.

    Each schedule entry is a topology-level source rate held for one
    minute (divided evenly over the spouts).  Returns a JSON-stable
    mapping; hash it with :func:`trace_hash`.
    """
    store = MetricsStore()
    topology, packing, logic = workload.deployment()
    simulation = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=seed)
    )
    for rate_tpm in schedule_tpm:
        workload.set_source_rates(simulation, float(rate_tpm))
        simulation.run(1)
    trace = {
        "topology": topology.name,
        "seed": int(seed),
        "minutes": len(schedule_tpm),
        "schedule_tpm": [float(r) for r in schedule_tpm],
    }
    trace.update(canonical_store_trace(store, topology))
    return trace


def trace_hash(trace: dict[str, Any]) -> str:
    """SHA-256 of the trace's canonical (sorted, compact) JSON."""
    canonical = json.dumps(
        trace, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf8")).hexdigest()


def config_trace(
    shape: str,
    seed: int,
    minutes: int = 4,
    *,
    stmgr_capacity_tps: float | None = None,
    fault: str | None = None,
) -> dict[str, Any]:
    """Canonical trace under a non-default simulator configuration.

    Exercises the configuration axes the default golden fixtures do not
    reach — finite ``stmgr_capacity_tps`` (the explicit stream-manager
    queueing path) and each fault kind — so every code path of the
    engine is pinned by a committed hash, not just the transparent
    fault-free one.  The payload still records the one-second tick the
    committed hashes were taken with.
    """
    from repro.workloads.scenarios import fault_plan_for

    workload = generate_workload(shape, seed)
    plan = fault_plan_for(fault, workload) if fault else None
    store = MetricsStore()
    topology, packing, logic = workload.deployment()
    simulation = HeronSimulation(
        topology,
        packing,
        logic,
        store,
        SimulationConfig(seed=seed, stmgr_capacity_tps=stmgr_capacity_tps),
        faults=plan,
    )
    schedule = [0.6 * workload.base_rate_tpm] * minutes
    for rate_tpm in schedule:
        workload.set_source_rates(simulation, float(rate_tpm))
        simulation.run(1)
    trace = {
        "topology": topology.name,
        "seed": int(seed),
        "minutes": int(minutes),
        "schedule_tpm": [float(r) for r in schedule],
        "tick_seconds": 1.0,
        "stmgr_capacity_tps": (
            None
            if stmgr_capacity_tps is None
            else float(stmgr_capacity_tps)
        ),
        "fault": fault,
    }
    trace.update(canonical_store_trace(store, topology))
    return trace


def golden_trace_payload(
    shape: str, seed: int, minutes: int = 4
) -> dict[str, Any]:
    """The committed-fixture payload for one (shape, seed) identity.

    A fixture stores the full trace alongside its hash: the test only
    compares hashes, but a mismatch investigation needs the series that
    produced the committed one.
    """
    workload = generate_workload(shape, seed)
    schedule = [0.6 * workload.base_rate_tpm] * minutes
    trace = workload_trace(workload, schedule, seed=seed)
    return {
        "shape": shape,
        "seed": int(seed),
        "minutes": int(minutes),
        "trace_hash": trace_hash(trace),
        "trace": trace,
    }
