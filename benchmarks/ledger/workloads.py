"""The five workloads: frozen sizes, reasons, and request generation.

A workload is one traffic mix over the same pipeline.  Every workload
runs every stage (simulate, ingest, SIGKILL + recover, query) so every
end-to-end metric exists on every workload; what differs is which stage
carries the weight, and therefore which layers an optimisation has to
touch to move the numbers.  Sizes are work-based constants — a round does
the same work on every machine — and all randomness derives from the run
seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from benchmarks.ledger.inputs import (
    Deployment, TopologySpec, corpus_specs,
)
from repro.workloads import SHAPES, workload_seed

FEED_SHAPE = "deep_chain"
SWEEP_PLANS = 256
ZIPF_EXPONENT = 1.1
#: Load level (x base rate) no simulated history ever runs at; the
#: prediction-accuracy check is made there.
HELD_BACK_LEVEL = 0.8
#: The open-loop workload: per-sample writes inside every tick.
TICK_WRITES = 2
#: Distinct requests its reader cycles over.  A tick invalidates them up
#: to three times (one batch, two per-sample writes) and one recomputation
#: takes 25-60 ms beside the writes, so with two requests and a 400 ms
#: tick recomputing fills a third of the tick at most, also while the
#: sandbox runs at half speed: the median read is a hit and the p95 a
#: recompute.  (At four requests or a 200 ms tick the median sat between
#: the two modes and flipped from run to run.)
READER_CYCLE = 2
#: The reader's pause between a reply and its next request.  It stands for
#: a few schedulers polling, not for a client that saturates the service
#: (which made every write-side figure of the workload swing with how the
#: two threads happened to interleave).
READER_THINK_S = 0.010
#: Reads per tick in the traced, single-threaded replay of the open loop:
#: a fixed share of what the think time allows, so its counts repeat.
MIRROR_READS_PER_TICK = 16


@dataclass(frozen=True)
class Workload:
    """Frozen size constants of one workload (one *round* of work)."""

    name: str
    why: str
    #: Target instance count of the feed topology (``deep_chain`` scaled).
    feed_instances: int
    #: Minutes of feed history the child preloads before ``/readyz``.
    feed_preload_minutes: int
    #: Further minutes the load generator simulates, each one timed.
    feed_minutes: int
    #: Timed Word Count (14 instances) minutes.
    small_sim_minutes: int
    #: > 0: only the first this-many timed minutes are ingested.  Every
    #: workload simulates more minutes than it feeds, because a steady
    #: simulator rate needs more timed minutes than the ingest budget has.
    ingest_minutes: int = 0
    #: 4 shapes x ``corpus_seeds`` topologies preloaded in the child and
    #: queried; 0 means the queries go to the feed topology.
    corpus_seeds: int = 0
    #: Target instance count of each corpus topology.
    corpus_instances: int = 0
    corpus_minutes: int = 0
    #: Per-sample ``POST /metrics/write`` calls.
    probe_writes: int = 0
    #: Predictions that each differ from every other (cache misses).
    distinct_predictions: int = 0
    #: Predictions drawn Zipf(1.1) over the first ``primed`` distinct ones.
    repeat_predictions: int = 0
    primed: int = 0
    #: 256-plan sweeps; a cold sweep follows an untimed write to its
    #: topology, so the sweep engine's artifact memo misses as well.
    sweeps: int = 0
    cold_sweeps: bool = True
    forecasts: int = 0
    #: > 0: the feed minutes are replayed open loop, one per tick, while a
    #: second thread reads on a second connection; 0: ingest first, query
    #: after, closed loop on the one connection.
    tick_ms: int = 0

    def scaled(self, scale: float) -> "Workload":
        """Same shape of work at ``scale`` of the size (for smoke tests)."""
        if scale == 1.0:
            return self

        def n(value: int, floor: int) -> int:
            return max(floor, round(value * scale)) if value else 0

        return replace(
            self,
            feed_instances=n(self.feed_instances, 22),
            corpus_instances=n(self.corpus_instances, 12),
            feed_preload_minutes=n(self.feed_preload_minutes, 5),
            feed_minutes=n(self.feed_minutes, 4),
            small_sim_minutes=n(self.small_sim_minutes, 10),
            ingest_minutes=n(self.ingest_minutes, 4),
            corpus_minutes=n(self.corpus_minutes, 5),
            probe_writes=n(self.probe_writes, 3),
            distinct_predictions=n(self.distinct_predictions, 4),
            repeat_predictions=n(self.repeat_predictions, 8),
            primed=n(self.primed, 2),
            sweeps=n(self.sweeps, 1),
            forecasts=n(self.forecasts, 1),
        )


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="pipeline_1k",
        why="1000-instance topology through every stage in production order; "
            "codec, WAL, store apply and replay do most of the work",
        feed_instances=1000, feed_preload_minutes=0, feed_minutes=36,
        small_sim_minutes=10, ingest_minutes=4, probe_writes=30,
        # Mostly distinct predictions, so the median is a calibration of
        # the 1000-instance topology.  (With 2 distinct + 40 repeats it was
        # a sub-millisecond cache hit on one idle connection: wake-ups,
        # which moved 25-60 % with the sandbox's phases.)
        distinct_predictions=6, repeat_predictions=3, primed=2,
        # The one sweep is cold anyway (the restart emptied the artifact
        # memo); an invalidating write before it would set the child
        # re-warming the primed predictions while their repeats are timed.
        sweeps=1, cold_sweeps=False, forecasts=1,
    ),
    Workload(
        name="cold_queries",
        why="every request differs, so calibration, store reads and the sweep "
            "kernel do the work and the result cache does none",
        feed_instances=250, feed_preload_minutes=0, feed_minutes=36,
        small_sim_minutes=10, ingest_minutes=10, probe_writes=30,
        corpus_seeds=2, corpus_instances=40, corpus_minutes=8,
        distinct_predictions=32, sweeps=4, forecasts=4,
    ),
    Workload(
        name="warm_queries",
        why="Zipf-repeated requests over a primed set, so request parse, "
            "fingerprint, cache hit and response write are the cost",
        feed_instances=250, feed_preload_minutes=0, feed_minutes=36,
        small_sim_minutes=10, ingest_minutes=10, probe_writes=30,
        corpus_seeds=2, corpus_instances=40, corpus_minutes=8,
        distinct_predictions=32, repeat_predictions=800, primed=32,
        sweeps=24, cold_sweeps=False, forecasts=4,
    ),
    Workload(
        name="mixed_rw",
        why="open-loop metric feed beside closed-loop reads of the same "
            "topology; every written minute invalidates what the reader cached",
        feed_instances=90, feed_preload_minutes=8, feed_minutes=36,
        small_sim_minutes=10, ingest_minutes=8,
        tick_ms=400,
    ),
    Workload(
        name="sim_heavy",
        why="long simulator windows at 1000 and 14 instances, little else; "
            "isolates host time per simulated minute in both regimes",
        feed_instances=1000, feed_preload_minutes=0, feed_minutes=60,
        small_sim_minutes=120, ingest_minutes=2, probe_writes=30,
        corpus_seeds=1, corpus_instances=20, corpus_minutes=6,
        distinct_predictions=24, sweeps=2, forecasts=2,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


# ----------------------------------------------------------------------
# Topologies
# ----------------------------------------------------------------------
def feed_spec(workload: Workload, seed: int) -> TopologySpec:
    """The feed topology: ``deep_chain`` scaled to the target size."""
    return TopologySpec(
        FEED_SHAPE, workload_seed(seed, FEED_SHAPE), workload.feed_instances
    )


def corpus(workload: Workload, seed: int) -> tuple[TopologySpec, ...]:
    """The preloaded query corpus (empty: queries go to the feed)."""
    if not workload.corpus_seeds:
        return ()
    # seed + 1: the corpus' deep_chain must not collide with the feed's.
    return corpus_specs(
        seed + 1, SHAPES, workload.corpus_seeds, workload.corpus_instances
    )


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One model request; ``key`` identifies requests that must agree."""

    kind: str  # "predict" | "sweep" | "forecast"
    topology: str
    key: str
    source_rate: float = 0.0
    parallelisms: tuple[tuple[str, int], ...] = ()
    plans: tuple[tuple[tuple[str, int], ...], ...] = ()
    horizon_minutes: int = 0
    #: Write one sample to the topology first (untimed): bumps its
    #: ``data_version`` so cache and artifact memo both miss.
    invalidate: bool = False


def _bolts(deployment: Deployment) -> list[tuple[str, int]]:
    return [
        (name, component.parallelism)
        for name, component in deployment.topology.components.items()
        if not component.is_spout
    ]


def prediction(deployment: Deployment, index: int) -> Request:
    """The ``index``-th distinct prediction against one topology."""
    bolts = _bolts(deployment)
    bolt, parallelism = bolts[index % len(bolts)]
    proposal = parallelism + 1 + (index // len(bolts)) % 3
    rate = deployment.workload.base_rate_tpm * (0.4 + 0.0007 * index)
    return Request(
        "predict", deployment.name, f"predict:{deployment.name}:{index}",
        source_rate=rate, parallelisms=((bolt, proposal),),
    )


def sweep_plans(deployment: Deployment, count: int = SWEEP_PLANS):
    """A ``count``-plan grid over the first two bolts' parallelisms."""
    (first, p_first), (second, p_second) = _bolts(deployment)[:2]
    side = max(1, round(count ** 0.5))
    return tuple(
        (
            (first, max(1, round(p_first * (1 + k % side) / 8))),
            (second, max(1, round(p_second * (1 + k // side) / 8))),
        )
        for k in range(count)
    )


def sweep(deployment: Deployment, index: int, invalidate: bool) -> Request:
    rate = deployment.workload.base_rate_tpm * (0.6 + 0.01 * (index % 8))
    return Request(
        "sweep", deployment.name, f"sweep:{deployment.name}:{index % 8}",
        source_rate=rate, plans=sweep_plans(deployment), invalidate=invalidate,
    )


def forecast(deployment: Deployment, index: int) -> Request:
    return Request(
        "forecast", deployment.name, f"forecast:{deployment.name}:{index}",
        horizon_minutes=10 + index,
    )


def request_rng(seed: int, workload: Workload) -> np.random.Generator:
    return np.random.default_rng(
        zlib.crc32(f"{seed}:{workload.name}:requests".encode("utf8"))
    )


def query_plan(
    workload: Workload, targets: list[Deployment], seed: int
) -> tuple[list[Request], list[Request]]:
    """``(priming, mix)`` request lists for one round's query phase.

    ``priming`` is the first ``primed`` distinct predictions, sent once
    each on one connection (all misses); ``mix`` is everything else in a
    seeded shuffle.  Repeats draw Zipf(1.1) over the primed predictions;
    warm sweeps repeat over at most eight distinct sweeps, cold sweeps
    each follow an invalidating write.
    """
    rng = request_rng(seed, workload)
    distinct = [
        prediction(targets[index % len(targets)], index)
        for index in range(workload.distinct_predictions)
    ]
    priming = distinct[:workload.primed]
    mix: list[Request] = distinct[workload.primed:]
    if workload.repeat_predictions and priming:
        weights = 1.0 / np.arange(1, len(priming) + 1) ** ZIPF_EXPONENT
        draws = rng.choice(
            len(priming), size=workload.repeat_predictions,
            p=weights / weights.sum(),
        )
        mix += [priming[int(draw)] for draw in draws]
    mix += [
        sweep(targets[index % len(targets)], index, workload.cold_sweeps)
        for index in range(workload.sweeps)
    ]
    mix += [
        forecast(targets[index % len(targets)], index)
        for index in range(workload.forecasts)
    ]
    order = rng.permutation(len(mix))
    return priming, [mix[int(position)] for position in order]
