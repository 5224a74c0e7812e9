"""Seeded, parameterized topology generator for the workload matrix.

Everything the models have been validated against so far is word-count
shaped: one spout, a short chain, one fields grouping.  PDSP-Bench makes
the case that a stream-processing system only becomes benchmarkable once
its workload space is *parameterized* — DAG shape, parallelism, and data
characteristics drawn from a seeded generator rather than hand-picked
examples.  This module is that generator for the Caladrius reproduction.

Four shape families cover the structural features the chained model
(Eq. 12-14) must survive:

``diamond``
    One spout, a splitter whose single output stream is consumed by two
    parallel branches (one shuffle, one Zipf-skewed fields grouping),
    re-converging on a merge sink — multiple source→sink paths sharing
    a stream.
``fanin``
    Two spouts with independent cleaning stages joined on a shared key
    space (both join edges fields-grouped over the *same* Zipf
    vocabulary), then a sink — the streaming-join scenario.
``deep_chain``
    One spout and a chain of at least six bolts alternating shuffle and
    fields groupings, with a windowed (rate-reducing, stateful) stage
    mid-chain — the error-accumulation scenario for chained predictions.
``multi_spout``
    Three spouts fanning into a router that emits named ``hot`` and
    ``cold`` streams to an aggregating sink (fields, skewed) and an
    archive sink (shuffle) — multi-source rate composition plus named
    multi-stream routing.

Every draw comes from one ``numpy`` generator seeded by
:attr:`GeneratorParams.seed`, so a (shape, seed) pair is a complete,
reproducible workload identity: the same pair always yields a
byte-identical :func:`~repro.heron.topology_yaml.dump_topology_yaml`
document and byte-identical simulations.

Capacities are not drawn blindly: the generator walks the DAG computing
each component's offered rate at the base rate of 6 M tuples a minute
(exactly as the fluid simulator will route it, hottest instance
included) and sets every bolt's ``capacity_tps`` so its busiest instance
sits at a drawn utilisation in ``[0.35, 0.65]``.
Generated workloads are therefore unsaturated at the base rate — finite,
calibratable behaviour — yet saturable within a 2-3x rate sweep.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from collections.abc import Mapping

import numpy as np

from repro.errors import TopologyError
from repro.heron.groupings import (
    FieldsGrouping,
    Grouping,
    KeyDistribution,
    ShuffleGrouping,
)
from repro.heron.packing import PackingPlan, RoundRobinPacking
from repro.heron.simulation import ComponentLogic, HeronSimulation, SpoutLogic
from repro.heron.topology import LogicalTopology, TopologyBuilder

__all__ = [
    "SHAPES",
    "GeneratorParams",
    "GeneratedWorkload",
    "generate_workload",
    "workload_seed",
]

SHAPES = ("diamond", "fanin", "deep_chain", "multi_spout")

_MINUTE = 60.0
#: The topology-level reference rate (divided evenly over spouts, the
#: evaluation-spout convention) capacities are sized at and traffic
#: schedules scale.
_BASE_RATE_TPM = 6.0e6
#: Keys per fields-grouped edge, and the lower end of their Zipf exponent.
_KEY_COUNT = 120
_ZIPF_EXPONENT = 1.6
#: The band a bolt's busiest instance is sized into at the base rate.
_UTILISATION = (0.35, 0.65)
_CHAIN_DEPTH = 6


def workload_seed(matrix_seed: int, shape: str) -> int:
    """Derive one shape's workload seed from a matrix seed (stable CRC)."""
    return zlib.crc32(f"{matrix_seed}:{shape}".encode("utf8"))


@dataclass(frozen=True)
class GeneratorParams:
    """A generated workload's identity: its shape and seed."""

    shape: str
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise TopologyError(
                f"unknown workload shape {self.shape!r}; known: {list(SHAPES)}"
            )

    @property
    def topology_name(self) -> str:
        """The generated topology's name, ``gen-<shape>-s<seed>``."""
        return f"gen-{self.shape}-s{self.seed}"


@dataclass(frozen=True)
class GeneratedWorkload:
    """One generated deployment: the simulator triple plus its identity."""

    params: GeneratorParams
    topology: LogicalTopology
    packing: PackingPlan
    logic: dict[str, SpoutLogic | ComponentLogic]

    @property
    def name(self) -> str:
        """The topology name."""
        return self.topology.name

    @property
    def base_rate_tpm(self) -> float:
        """The reference topology source rate the capacities were sized at."""
        return _BASE_RATE_TPM

    def deployment(
        self,
    ) -> tuple[LogicalTopology, PackingPlan, dict[str, SpoutLogic | ComponentLogic]]:
        """The ``(topology, packing, logic)`` triple the simulator takes."""
        return self.topology, self.packing, self.logic

    def with_parallelisms(
        self, changes: Mapping[str, int] | None
    ) -> "GeneratedWorkload":
        """A copy rescaled to new parallelisms (repacked, logic shared)."""
        if not changes:
            return self
        topology = self.topology.with_parallelism(dict(changes))
        packing = _pack(topology)
        return replace(self, topology=topology, packing=packing)

    def build_fn(self):
        """A :class:`~repro.autoscaler.cluster.SimulatedCluster` build fn."""

        def build(parallelisms: Mapping[str, int] | None):
            return self.with_parallelisms(parallelisms).deployment()

        return build

    def set_source_rates(
        self, simulation: HeronSimulation, rate_tpm: float
    ) -> None:
        """Divide a topology-level rate evenly over the spouts."""
        spouts = self.topology.spouts()
        for spout in spouts:
            simulation.set_source_rate(spout.name, rate_tpm / len(spouts))


def generate_workload(shape: str, seed: int = 0) -> GeneratedWorkload:
    """Generate one workload for a (shape, seed) identity."""
    params = GeneratorParams(shape=shape, seed=seed)
    builders = {
        "diamond": _build_diamond,
        "fanin": _build_fanin,
        "deep_chain": _build_deep_chain,
        "multi_spout": _build_multi_spout,
    }
    rng = np.random.default_rng(params.seed)
    topology, alphas, profiles = builders[params.shape](params, rng)
    logic = _finalise_logic(topology, alphas, profiles, rng)
    return GeneratedWorkload(params, topology, _pack(topology), logic)


# ----------------------------------------------------------------------
# Shape blueprints
# ----------------------------------------------------------------------
# Each builder returns (topology, alphas, profiles) where ``alphas`` maps
# component -> {stream: io coefficient} (spouts included) and
# ``profiles`` maps bolt -> profile tag ("relay", "expand", "filter",
# "window", "stateful", "sink") used for state/memory parameters.


def _parallelism(rng: np.random.Generator, low: int = 2, high: int = 4) -> int:
    return int(rng.integers(low, high + 1))


def _zipf_keys(rng: np.random.Generator, label: str) -> KeyDistribution:
    """A skewed key vocabulary unique to one edge of the topology."""
    exponent = float(rng.uniform(_ZIPF_EXPONENT, _ZIPF_EXPONENT + 0.6))
    keys = [f"{label}-k{i}" for i in range(_KEY_COUNT)]
    return KeyDistribution.zipf(keys, exponent)


def _build_diamond(params: GeneratorParams, rng: np.random.Generator):
    builder = TopologyBuilder(params.topology_name)
    builder.add_spout("source", _parallelism(rng))
    builder.add_bolt("split", _parallelism(rng))
    builder.add_bolt("left", _parallelism(rng))
    builder.add_bolt("right", _parallelism(rng))
    builder.add_bolt("merge", _parallelism(rng))
    builder.connect("source", "split", ShuffleGrouping())
    builder.connect("split", "left", ShuffleGrouping(), stream="out")
    builder.connect(
        "split",
        "right",
        FieldsGrouping(["user"], _zipf_keys(rng, "diamond-right")),
        stream="out",
    )
    builder.connect("left", "merge", ShuffleGrouping())
    builder.connect(
        "right",
        "merge",
        FieldsGrouping(["user"], _zipf_keys(rng, "diamond-merge")),
    )
    alphas = {
        "source": {"default": 1.0},
        "split": {"out": float(rng.uniform(1.2, 2.4))},
        "left": {"default": float(rng.uniform(0.8, 1.2))},
        "right": {"default": float(rng.uniform(0.3, 0.7))},
        "merge": {},
    }
    profiles = {
        "split": "expand",
        "left": "relay",
        "right": "filter",
        "merge": "sink",
    }
    return builder.build(), alphas, profiles


def _build_fanin(params: GeneratorParams, rng: np.random.Generator):
    builder = TopologyBuilder(params.topology_name)
    builder.add_spout("orders", _parallelism(rng))
    builder.add_spout("clicks", _parallelism(rng))
    builder.add_bolt("clean_orders", _parallelism(rng))
    builder.add_bolt("clean_clicks", _parallelism(rng))
    builder.add_bolt("join", _parallelism(rng, 3, 4))
    builder.add_bolt("store", _parallelism(rng))
    builder.connect("orders", "clean_orders", ShuffleGrouping())
    builder.connect("clicks", "clean_clicks", ShuffleGrouping())
    # Both join edges hash the *same* key vocabulary — co-partitioning,
    # as a streaming equi-join requires.
    join_keys = _zipf_keys(rng, "fanin-join")
    builder.connect(
        "clean_orders", "join", FieldsGrouping(["key"], join_keys)
    )
    builder.connect(
        "clean_clicks", "join", FieldsGrouping(["key"], join_keys)
    )
    builder.connect("join", "store", ShuffleGrouping())
    alphas = {
        "orders": {"default": 1.0},
        "clicks": {"default": 1.0},
        "clean_orders": {"default": float(rng.uniform(0.5, 0.9))},
        "clean_clicks": {"default": float(rng.uniform(0.8, 1.2))},
        "join": {"default": float(rng.uniform(0.6, 1.1))},
        "store": {},
    }
    profiles = {
        "clean_orders": "filter",
        "clean_clicks": "relay",
        "join": "stateful",
        "store": "sink",
    }
    return builder.build(), alphas, profiles


def _build_deep_chain(params: GeneratorParams, rng: np.random.Generator):
    builder = TopologyBuilder(params.topology_name)
    builder.add_spout("head", _parallelism(rng))
    window_stage = _CHAIN_DEPTH // 2
    stages = [f"stage{i}" for i in range(1, _CHAIN_DEPTH + 1)]
    for stage in stages:
        builder.add_bolt(stage, _parallelism(rng))
    previous = "head"
    for index, stage in enumerate(stages, start=1):
        if index % 2 == 0:
            grouping: Grouping = FieldsGrouping(
                ["key"], _zipf_keys(rng, f"chain-{index}")
            )
        else:
            grouping = ShuffleGrouping()
        builder.connect(previous, stage, grouping)
        previous = stage
    alphas: dict[str, dict[str, float]] = {"head": {"default": 1.0}}
    profiles: dict[str, str] = {}
    for index, stage in enumerate(stages, start=1):
        if index == len(stages):
            alphas[stage] = {}
            profiles[stage] = "sink"
        elif index == window_stage:
            window = int(rng.choice([15, 20, 30]))
            alphas[stage] = {"default": 1.0 / window}
            profiles[stage] = "window"
        else:
            alphas[stage] = {"default": float(rng.uniform(0.8, 1.25))}
            profiles[stage] = "relay"
    return builder.build(), alphas, profiles


def _build_multi_spout(params: GeneratorParams, rng: np.random.Generator):
    builder = TopologyBuilder(params.topology_name)
    for spout in ("events", "logs", "billing"):
        builder.add_spout(spout, _parallelism(rng))
    builder.add_bolt("router", _parallelism(rng, 3, 4))
    builder.add_bolt("agg", _parallelism(rng))
    builder.add_bolt("archive", _parallelism(rng))
    for spout in ("events", "logs", "billing"):
        builder.connect(spout, "router", ShuffleGrouping())
    builder.connect(
        "router",
        "agg",
        FieldsGrouping(["tenant"], _zipf_keys(rng, "hot")),
        stream="hot",
    )
    builder.connect("router", "archive", ShuffleGrouping(), stream="cold")
    alphas = {
        "events": {"default": 1.0},
        "logs": {"default": 1.0},
        "billing": {"default": 1.0},
        "router": {
            "hot": float(rng.uniform(0.5, 0.9)),
            "cold": float(rng.uniform(0.2, 0.5)),
        },
        "agg": {},
        "archive": {},
    }
    profiles = {"router": "relay", "agg": "window", "archive": "sink"}
    return builder.build(), alphas, profiles


# ----------------------------------------------------------------------
# Capacity auto-assignment and logic assembly
# ----------------------------------------------------------------------
def _offered_rates(
    topology: LogicalTopology,
    alphas: Mapping[str, Mapping[str, float]],
    base_rate_tpm: float,
) -> tuple[dict[str, float], dict[str, float]]:
    """(component arrival tpm, hottest-instance arrival tpm) at base rate.

    Mirrors the fluid simulator's routing exactly: each declared stream
    is emitted once per component and every subscriber receives it
    through its own grouping's share vector, so skew lands on specific
    instances just as it will at run time.
    """
    spouts = topology.spouts()
    per_spout = base_rate_tpm / len(spouts)
    arrival: dict[str, float] = {name: 0.0 for name in topology.components}
    instance_arrival = {
        name: np.zeros(spec.parallelism)
        for name, spec in topology.components.items()
    }
    for spec in topology.topological_order():
        name = spec.name
        processed = per_spout if spec.is_spout else arrival[name]
        stream_rates = {
            stream_name: processed * alpha
            for stream_name, alpha in alphas[name].items()
        }
        for stream in topology.outputs(name):
            rate = stream_rates[stream.name]
            dest = stream.destination
            shares = stream.grouping.shares(
                topology.components[dest].parallelism
            )
            arrival[dest] += rate * float(shares.sum())
            instance_arrival[dest] += rate * shares
    hottest = {
        name: float(vec.max()) if vec.size else 0.0
        for name, vec in instance_arrival.items()
    }
    return arrival, hottest


_PROFILE_STATE = {
    # profile -> (state bytes per processed tuple, state cap bytes)
    "relay": (0.0, 512e6),
    "expand": (0.0, 512e6),
    "filter": (0.0, 512e6),
    "window": (32.0, 256e6),
    "stateful": (24.0, 384e6),
    "sink": (8.0, 256e6),
}


def _finalise_logic(
    topology: LogicalTopology,
    alphas: Mapping[str, Mapping[str, float]],
    profiles: Mapping[str, str],
    rng: np.random.Generator,
) -> dict[str, SpoutLogic | ComponentLogic]:
    _, hottest = _offered_rates(topology, alphas, _BASE_RATE_TPM)
    logic: dict[str, SpoutLogic | ComponentLogic] = {}
    for name, spec in topology.components.items():
        if spec.is_spout:
            logic[name] = SpoutLogic(
                fetch_multiplier=10.0, alphas=dict(alphas[name])
            )
            continue
        utilisation = float(rng.uniform(*_UTILISATION))
        hottest_tps = hottest[name] / _MINUTE
        if hottest_tps <= 0:
            raise TopologyError(
                f"generated bolt {name!r} receives no traffic at the "
                "base rate; the blueprint is wired wrong"
            )
        state_bytes, state_cap = _PROFILE_STATE[profiles[name]]
        logic[name] = ComponentLogic(
            capacity_tps=float(hottest_tps / utilisation),
            alphas=dict(alphas[name]),
            input_tuple_bytes=float(np.round(rng.uniform(24.0, 96.0), 1)),
            capacity_noise=0.015,
            state_bytes_per_processed=state_bytes,
            state_memory_cap_bytes=state_cap,
        )
    return logic


def _pack(topology: LogicalTopology) -> PackingPlan:
    """Two instances per container, through the explicit-count path.

    Using ``pack(topology, n)`` (not ``pack_with_density``) keeps the
    packing identical to what the YAML loader reconstructs from the
    dumped ``containers`` count, which the round-trip guarantee needs.
    """
    containers = max(1, -(-topology.total_instances() // 2))
    return RoundRobinPacking().pack(topology, containers)
