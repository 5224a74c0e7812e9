"""Input generation shared by the load generator and the child service.

Everything here is a pure function of ``(shape, seed, instances)`` plus
a simulation seed, so the benchmark process and ``_service.py`` rebuild
byte-identical topologies and metric histories from a few command-line
words instead of shipping them over a pipe.
"""

from __future__ import annotations

import itertools
import zlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.api.ingest import decode_frames, encode_frames
from repro.heron.packing import PackingPlan, RoundRobinPacking
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.topology import LogicalTopology
from repro.timeseries.store import MetricsStore
from repro.workloads import GeneratedWorkload, generate_workload, workload_seed

#: Flush policy of every durable store the ledger opens (recorded in the
#: output document): an ack means the sample was fsynced.
FSYNC = "always"
#: Frames per ``write_batch`` request, the size ``BatchWriter`` flushes at.
BATCH_FRAMES = 1000
#: Instances per container when a generated topology is scaled up.
PACKING_DENSITY = 8
#: Load levels (x base rate) a simulated history steps through, so the
#: calibration has a spread of source rates to fit.
LEVELS = (0.3, 0.5, 0.7, 0.9, 1.1, 1.3)
#: Untimed minutes at the head of every timed simulation (routing-table
#: compilation and the first flush that builds the batched metric plan).
SIM_WARMUP_MINUTES = 2

Entry = tuple[str, int, float, dict[str, str]]


@dataclass(frozen=True)
class TopologySpec:
    """A generated topology's whole identity: three command-line words."""

    shape: str
    seed: int
    #: Total instances the generated topology is scaled to.  Generated
    #: parallelisms vary with the seed; fixing the total keeps the amount
    #: of work (series, samples per minute) the same from seed to seed.
    instances: int

    def arg(self) -> str:
        return f"{self.shape}:{self.seed}:{self.instances}"

    @classmethod
    def parse(cls, text: str) -> "TopologySpec":
        shape, seed, instances = text.split(":")
        return cls(shape, int(seed), int(instances))


@dataclass(frozen=True)
class Deployment:
    """A spec materialised into what the simulator and tracker take."""

    spec: TopologySpec
    workload: GeneratedWorkload
    topology: LogicalTopology
    packing: PackingPlan

    @property
    def name(self) -> str:
        return self.topology.name


def corpus_specs(seed: int, shapes: Sequence[str], seeds: int, instances: int):
    """``len(shapes) x seeds`` topology specs derived from one run seed."""
    return tuple(
        TopologySpec(shape, workload_seed(seed + offset, shape), instances)
        for offset in range(seeds)
        for shape in shapes
    )


def build_deployment(spec: TopologySpec) -> Deployment:
    """Generate, scale and pack one topology (the ``generate`` layer).

    Every parallelism is multiplied by the same whole number and the
    remaining instances go one each to the components in declaration
    order; a target below the generated size leaves it as generated.
    """
    workload = generate_workload(spec.shape, spec.seed)
    generated = workload.topology.components
    whole, extra = divmod(
        spec.instances, sum(c.parallelism for c in generated.values())
    )
    if whole == 0:
        whole, extra = 1, 0
    parallelism = {name: c.parallelism * whole for name, c in generated.items()}
    for name in itertools.islice(itertools.cycle(generated), extra):
        parallelism[name] += 1
    topology = workload.topology.with_parallelism(parallelism)
    packing = RoundRobinPacking().pack_with_density(topology, PACKING_DENSITY)
    return Deployment(spec, workload, topology, packing)


def sim_seed(seed: int, name: str) -> int:
    """The simulation RNG seed for one topology under one run seed."""
    return zlib.crc32(f"{seed}:{name}:sim".encode("utf8"))


def new_simulation(
    deployment: Deployment, store: MetricsStore, seed: int
) -> HeronSimulation:
    return HeronSimulation(
        deployment.topology,
        deployment.packing,
        deployment.workload.logic,
        store,
        SimulationConfig(seed=sim_seed(seed, deployment.name)),
    )


def level_schedule(minutes: int) -> list[float]:
    """One load level per simulated minute, cycling through LEVELS."""
    return [LEVELS[minute % len(LEVELS)] for minute in range(minutes)]


def run_levels(
    deployment: Deployment, simulation: HeronSimulation, levels: Iterable[float]
) -> None:
    """Advance a simulation one minute per load level."""
    for level in levels:
        deployment.workload.set_source_rates(
            simulation, level * deployment.workload.base_rate_tpm
        )
        simulation.run(1)


class FeedStore(MetricsStore):
    """A simulator store that remembers each minute as it was flushed.

    The simulator hands a whole minute to ``append_minute_batch`` once its
    flush plan exists (from the second minute on); keeping that hand-over
    gives the feed its samples in delivery order without reading 10^4
    series back out of the store.  The first, keyed, minute is not
    recorded — every simulated history here starts with warm-up minutes
    that are never fed anywhere.
    """

    def __init__(self) -> None:
        super().__init__()
        #: ``(name, tags)`` of every series, in flush order.
        self.series_ids: list[tuple[str, dict[str, str]]] = []
        #: ``(timestamp, values)`` per recorded minute, values in
        #: ``series_ids`` order.
        self.minutes: list[tuple[int, Sequence[float]]] = []

    def make_minute_batch(self, keys):
        self.series_ids = [(key.name, key.tag_dict()) for key in keys]
        return super().make_minute_batch(keys)

    def append_minute_batch(self, batch, timestamp, values, topology=None):
        super().append_minute_batch(batch, timestamp, values, topology)
        self.minutes.append((int(timestamp), values))

    def sample_count(self) -> int:
        """Samples in the recorded minutes, without materialising them."""
        return len(self.minutes) * len(self.series_ids)

    def entries(
        self, first_minute: int = 0, end_minute: int | None = None
    ) -> list[Entry]:
        """Write entries of the recorded minutes in ``[first, end)``."""
        end = float("inf") if end_minute is None else end_minute * 60
        return [
            (name, timestamp, value, tags)
            for timestamp, values in self.minutes
            if first_minute * 60 <= timestamp < end
            for (name, tags), value in zip(self.series_ids, values)
        ]


def by_minute(entries: Iterable[Entry]) -> list[list[Entry]]:
    """Entries grouped per timestamp, in timestamp order (one open-loop
    tick each)."""
    grouped: dict[int, list[Entry]] = {}
    for entry in entries:
        grouped.setdefault(entry[1], []).append(entry)
    return [grouped[timestamp] for timestamp in sorted(grouped)]


def simulate_history(
    deployment: Deployment, seed: int, minutes: int
) -> FeedStore:
    """``minutes`` of metrics over the level schedule, in a fresh store."""
    store = FeedStore()
    run_levels(
        deployment, new_simulation(deployment, store, seed), level_schedule(minutes)
    )
    return store


def ingest_entries(store, entries: Sequence[Entry]) -> int:
    """Push entries through the batched durable write path, in-process.

    The same three public calls a ``write_batch`` request makes
    (``encode_frames`` -> ``decode_frames`` -> ``ingest_frames``), one
    commit group per :data:`BATCH_FRAMES` samples.  Returns acked count.
    """
    acked = 0
    for start in range(0, len(entries), BATCH_FRAMES):
        chunk = entries[start:start + BATCH_FRAMES]
        result = store.ingest_frames(decode_frames(encode_frames(chunk)))
        acked += result["acked"]
    return acked
