"""The ``/model/topology`` request corpus behind the golden differential.

What the five ledger workloads ask (``benchmarks.ledger.workloads``, the
frozen request generator, on small copies of its topologies) on two
seeds, plus an edge set the generator never sends: zero and huge rates,
each model alone, empty and complete plans, a fields-grouped component
rescaled, several spouts, a path of one component, a forecast-driven
request, and the requests the service refuses.  Everything is a pure
function of the seeds, so the answers recorded from one commit
(``tests/data/regenerate_model_goldens.py``) can be demanded of another.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import replace
from typing import Any

from benchmarks.ledger import inputs, workloads
from repro.api.app import CaladriusApp
from repro.config import load_config
from repro.heron.groupings import ShuffleGrouping
from repro.heron.packing import RoundRobinPacking
from repro.heron.simulation import (
    ComponentLogic,
    HeronSimulation,
    SimulationConfig,
    SpoutLogic,
)
from repro.heron.topology import TopologyBuilder
from repro.heron.tracker import TopologyTracker
from repro.serving.fingerprint import canonical_json
from repro.timeseries.store import MetricsStore

SEEDS = (7, 11)
#: Topology sizes relative to the ledger's; request counts stay whole.
SCALE = 0.1
HISTORY_MINUTES = 8

#: ``(label, method, path, query, body)``.
Request = tuple[str, str, str, dict[str, str], dict[str, Any]]


def _sized(workload: workloads.Workload) -> workloads.Workload:
    return replace(
        workload.scaled(SCALE),
        distinct_predictions=workload.distinct_predictions,
        repeat_predictions=workload.repeat_predictions,
        primed=workload.primed,
    )


def _predictions(workload, feed, targets, seed) -> list[workloads.Request]:
    if workload.tick_ms:  # the open loop's reader cycle
        return [
            workloads.prediction(feed, index)
            for index in range(workloads.READER_CYCLE)
        ]
    priming, mix = workloads.query_plan(workload, targets, seed)
    distinct = {r.key: r for r in priming + mix if r.kind == "predict"}
    return list(distinct.values())


def _deploy(tracker, store, deployment, seed) -> None:
    tracker.register(deployment.topology, deployment.packing)
    inputs.run_levels(
        deployment,
        inputs.new_simulation(deployment, store, seed),
        inputs.level_schedule(HISTORY_MINUTES),
    )


def workload_service(name: str, seed: int) -> tuple[CaladriusApp, list[Request]]:
    """One ledger workload's query targets, deployed, and what it asks."""
    workload = _sized(workloads.BY_NAME[name])
    feed = inputs.build_deployment(workloads.feed_spec(workload, seed))
    corpus = [
        inputs.build_deployment(spec) for spec in workloads.corpus(workload, seed)
    ]
    targets = corpus or [feed]
    tracker, store = TopologyTracker(), MetricsStore()
    for deployment in targets:
        _deploy(tracker, store, deployment, seed)
    requests = [
        (
            f"{name}/s{seed}/{request.key}",
            "POST",
            f"/model/topology/heron/{request.topology}",
            {},
            {
                "source_rate": request.source_rate,
                "parallelisms": dict(request.parallelisms),
            },
        )
        for request in _predictions(workload, feed, targets, seed)
    ]
    return CaladriusApp(load_config({}), tracker, store), requests


# ----------------------------------------------------------------------
# The edge set
# ----------------------------------------------------------------------
def _lone_spout_deployment(tracker, store, seed) -> str:
    """``feeder -> worker`` beside ``idler``, a spout nothing subscribes
    to: ``[idler]`` is a source->sink path of one component."""
    builder = TopologyBuilder("edge-lone-spout")
    builder.add_spout("feeder", 2)
    builder.add_spout("idler", 1)
    builder.add_bolt("worker", 3)
    builder.connect("feeder", "worker", ShuffleGrouping())
    topology = builder.build()
    packing = RoundRobinPacking().pack(topology, 3)
    logic = {
        "feeder": SpoutLogic(),
        "idler": SpoutLogic(alphas={}),
        "worker": ComponentLogic(capacity_tps=40_000.0, alphas={}),
    }
    tracker.register(topology, packing)
    simulation = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=seed)
    )
    for level in inputs.level_schedule(HISTORY_MINUTES):
        simulation.set_source_rate("feeder", level * 5.0e6)
        simulation.set_source_rate("idler", level * 1.0e6)
        simulation.run(1)
    return topology.name


def edge_service(seed: int = SEEDS[0]) -> tuple[CaladriusApp, list[Request]]:
    """Requests no workload sends, over one topology of every shape."""
    tracker, store = TopologyTracker(), MetricsStore()
    shapes = {}
    for spec in inputs.corpus_specs(seed, workloads.SHAPES, 1, 16):
        deployment = inputs.build_deployment(spec)
        _deploy(tracker, store, deployment, seed)
        shapes[spec.shape] = deployment
    lone = _lone_spout_deployment(tracker, store, seed)

    requests: list[Request] = []

    def ask(label, topology, body, **query) -> None:
        requests.append(
            (f"edge/{label}", "POST", f"/model/topology/heron/{topology}",
             {k: str(v) for k, v in query.items()}, body)
        )

    for shape, deployment in shapes.items():
        name, base = deployment.name, deployment.workload.base_rate_tpm
        components = deployment.topology.components
        bolts = [c for c in components.values() if not c.is_spout]
        ask(f"{shape}/zero-rate", name, {"source_rate": 0})
        ask(f"{shape}/huge-rate", name, {"source_rate": 1e9})
        ask(f"{shape}/float-rate", name, {"source_rate": 0.77 * base})
        ask(f"{shape}/empty-plan", name,
            {"source_rate": 0.9 * base, "parallelisms": {}})
        ask(f"{shape}/absent-plan", name, {"source_rate": 0.9 * base})
        ask(f"{shape}/null-plan", name,
            {"source_rate": 0.9 * base, "parallelisms": None})
        ask(f"{shape}/every-component", name,
            {"source_rate": 1.2 * base,
             "parallelisms": {c.name: c.parallelism + 2 for c in components.values()}})
        ask(f"{shape}/same-parallelisms", name,
            {"source_rate": 1.2 * base,
             "parallelisms": {c.name: c.parallelism for c in bolts}})
        for model in ("throughput-prediction", "backpressure-evaluation"):
            ask(f"{shape}/only-{model}", name,
                {"source_rate": 1.1 * base,
                 "parallelisms": {bolts[0].name: bolts[0].parallelism + 1}},
                model=model)
        # Every bolt alone, shrunk and grown: the fields-grouped ones
        # (re-hashed shares) among them.
        for bolt in bolts:
            for parallelism in (1, bolt.parallelism + 3):
                ask(f"{shape}/{bolt.name}={parallelism}", name,
                    {"source_rate": 1.4 * base,
                     "parallelisms": {bolt.name: parallelism}})
        ask(f"{shape}/forecast-driven", name,
            {"traffic_model": "stats-summary",
             "parallelisms": {bolts[-1].name: bolts[-1].parallelism + 1}})
        ask(f"{shape}/unknown-component", name,
            {"source_rate": base, "parallelisms": {"nope": 2}})
        ask(f"{shape}/zero-parallelism", name,
            {"source_rate": base, "parallelisms": {bolts[0].name: 0}})
    for rate in (0, 3.0e6, 1e9):
        ask(f"lone-spout/rate-{rate:g}", lone, {"source_rate": rate})
    ask("lone-spout/worker=5", lone,
        {"source_rate": 4.0e6, "parallelisms": {"worker": 5}})
    ask("negative-rate", lone, {"source_rate": -1})
    ask("unknown-topology", "nope", {"source_rate": 1})
    return CaladriusApp(load_config({}), tracker, store), requests


def services() -> Iterator[tuple[CaladriusApp, list[Request]]]:
    """Every ``(app, requests)`` of the corpus; the caller shuts apps down."""
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            yield workload_service(workload.name, seed)
    yield edge_service()


def answer_hash(app: CaladriusApp, request: Request) -> str:
    """SHA-256 of the canonical JSON of ``[status, payload]``."""
    _, method, path, query, body = request
    status, payload = app.handle(method, path, query, body)
    return hashlib.sha256(
        canonical_json([status, payload]).encode("utf8")
    ).hexdigest()


def answers() -> dict[str, str]:
    """``label -> answer hash`` over the whole corpus."""
    hashes: dict[str, str] = {}
    for app, requests in services():
        try:
            for request in requests:
                assert request[0] not in hashes, request[0]
                hashes[request[0]] = answer_hash(app, request)
        finally:
            app.shutdown()
    return hashes
