"""Process-pool fan-out for simulator-backed plan validation.

The analytic kernel ranks plans in microseconds; *validating* the top
candidates means running the discrete-event simulator per plan, which is
CPU-bound Python.  :func:`validate_plans` fans those runs out over a
``ProcessPoolExecutor``: the pickled :class:`ValidationSpec` (topology,
component logic, traffic program) is shipped **once per worker** via the
pool initializer, the plan list is chunked through ``Executor.map``, and
every plan gets a deterministic seed derived from the spec's base seed
and the plan's canonical JSON — so results are bitwise independent of
worker count, chunking and scheduling order.
"""

from __future__ import annotations

import math
import pickle
import zlib
from collections.abc import Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.heron.metrics import MetricNames
from repro.heron.packing import Resources, RoundRobinPacking
from repro.heron.simulation import (
    ComponentLogic,
    HeronSimulation,
    SimulationConfig,
    SpoutLogic,
)
from repro.heron.topology import LogicalTopology
from repro.serving.fingerprint import canonical_json
from repro.timeseries.store import MetricsStore

__all__ = ["ValidationSpec", "plan_seed", "validate_plans"]


@dataclass(frozen=True)
class ValidationSpec:
    """Everything a worker needs to simulate one candidate plan.

    Immutable and pickleable: shipped to each pool worker exactly once.
    Each plan is packed two instances to a 1-core, 2 GiB container, and
    its first simulated minute is warm-up, left out of the means.
    """

    topology: LogicalTopology
    logic: Mapping[str, SpoutLogic | ComponentLogic]
    source_rates_tpm: Mapping[str, float]
    minutes: int = 5
    base_seed: int = 0


def plan_seed(base_seed: int, plan: Mapping[str, int]) -> int:
    """Deterministic, process-independent seed for one plan.

    CRC32 of the canonical JSON of ``(base_seed, plan)``: stable across
    Python processes and platforms (unlike ``hash``), cheap, and unique
    enough that distinct plans in one sweep draw independent noise.
    """
    payload = canonical_json({"seed": int(base_seed), "plan": dict(plan)})
    return zlib.crc32(payload.encode("utf8"))


def _validate_one(
    spec: ValidationSpec, plan: dict[str, int], seed: int
) -> dict[str, object]:
    """Simulate one plan in a fresh store and summarize steady state."""
    topology = spec.topology.with_parallelism(dict(plan))
    containers = max(1, math.ceil(topology.total_instances() / 2))
    packing = RoundRobinPacking(
        Resources(cpu=1.0, ram_bytes=2 * 1024**3)
    ).pack(topology, containers)
    store = MetricsStore()
    simulation = HeronSimulation(
        topology, packing, spec.logic, store, SimulationConfig(seed=seed)
    )
    for spout, rate_tpm in spec.source_rates_tpm.items():
        simulation.set_source_rate(spout, float(rate_tpm))
    simulation.run(spec.minutes)
    tags = {"topology": topology.name}
    output_tpm = 0.0
    for sink in topology.sinks():
        series = store.aggregate(
            MetricNames.EXECUTE_COUNT, {**tags, "component": sink.name}
        )
        values = series.values[1:]
        if values.shape[0]:
            output_tpm += float(values.mean())
    backpressure = store.aggregate(
        MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS, tags
    )
    bp_values = backpressure.values[1:]
    backpressure_ms = float(bp_values.mean()) if bp_values.shape[0] else 0.0
    return {
        "plan": dict(plan),
        "seed": int(seed),
        "output_tpm": output_tpm,
        "backpressure_ms": backpressure_ms,
    }


# Worker-side state: the spec is unpickled once per worker process by
# the pool initializer, not once per task.
_WORKER_SPEC: ValidationSpec | None = None


def _init_worker(payload: bytes) -> None:
    global _WORKER_SPEC
    _WORKER_SPEC = pickle.loads(payload)


def _worker_validate(task: tuple[dict[str, int], int]) -> dict[str, object]:
    plan, seed = task
    assert _WORKER_SPEC is not None, "pool worker missing its spec"
    return _validate_one(_WORKER_SPEC, plan, seed)


def validate_plans(
    spec: ValidationSpec,
    plans: Sequence[Mapping[str, int]],
    workers: int = 0,
    chunk_size: int | None = None,
) -> list[dict[str, object]]:
    """Simulate every plan; fan out over processes when ``workers > 0``.

    ``workers <= 0`` runs inline in this process — producing results
    identical to the pooled path, which the determinism tests assert.
    Results are returned in plan order regardless of scheduling.
    """
    tasks = [
        (dict(plan), plan_seed(spec.base_seed, plan)) for plan in plans
    ]
    if workers <= 0 or len(tasks) <= 1:
        return [_validate_one(spec, plan, seed) for plan, seed in tasks]
    chunk = chunk_size or max(1, math.ceil(len(tasks) / (workers * 4)))
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(pickle.dumps(spec),),
    ) as executor:
        return list(executor.map(_worker_validate, tasks, chunksize=chunk))
