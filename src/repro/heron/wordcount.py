"""The paper's evaluation workload: the 3-stage Word Count topology.

Fig. 1 of the paper: a sentence spout feeds a Splitter bolt over shuffle
grouping; the Splitter splits sentences into words and feeds a Counter
bolt over fields grouping on the word.  The spout reads sentences from a
literary corpus (here the synthetic Gatsby substitute), so the Splitter's
I/O coefficient is the corpus's mean sentence length (~7.63).

Rates are tuned to land near the paper's measurements:

* Splitter instance saturation point ≈ 11 M tuples/minute input
  (Fig. 4), hence ``capacity_tps`` ≈ 183,333;
* Counter component (p=3) saturation ≈ 210 M tuples/minute input
  (Fig. 9), hence per-instance ``capacity_tps`` ≈ 1.167 M;
* saturated Splitter instance CPU ≈ 1.15 cores (Figs. 11-12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.heron.corpus import SyntheticCorpus
from repro.heron.groupings import FieldsGrouping, ShuffleGrouping
from repro.heron.packing import PackingPlan, Resources, RoundRobinPacking
from repro.heron.simulation import (
    ComponentLogic,
    HeronSimulation,
    SimulationConfig,
    SpoutLogic,
)
from repro.heron.topology import LogicalTopology, TopologyBuilder
from repro.heron.tracker import TopologyTracker
from repro.timeseries.store import MetricsStore

__all__ = ["WordCountParams", "build_word_count", "demo_word_count"]

SPOUT = "sentence-spout"
SPLITTER = "splitter"
COUNTER = "counter"


#: The corpus every ``WordCountParams()`` shares: it is frozen and builds
#: its word distribution once, so its words are hashed once per process.
_DEFAULT_CORPUS = SyntheticCorpus()


@dataclass(frozen=True)
class WordCountParams:
    """Parallelisms, corpus and container count of the Word Count topology.

    Parallelisms default to the paper's Section V-A setup: spout 8 (fixed
    "unless mentioned otherwise"), Splitter and Counter as configured per
    experiment.  ``containers`` defaults to about two instances each.
    """

    spout_parallelism: int = 8
    splitter_parallelism: int = 3
    counter_parallelism: int = 3
    corpus: SyntheticCorpus = _DEFAULT_CORPUS
    containers: int | None = None

    def num_containers(self) -> int:
        """Container count: explicit, or ~2 instances per container."""
        if self.containers is not None:
            return self.containers
        total = (
            self.spout_parallelism
            + self.splitter_parallelism
            + self.counter_parallelism
        )
        return -(-total // 2)


def build_word_count(
    params: WordCountParams | None = None,
) -> tuple[LogicalTopology, PackingPlan, dict[str, SpoutLogic | ComponentLogic]]:
    """Build the Word Count topology, its packing plan and its logic.

    Returns everything :class:`~repro.heron.simulation.HeronSimulation`
    needs.  The word stream out of the Splitter is fields-grouped on the
    ``word`` field using the corpus's word-frequency distribution, exactly
    as the real topology's routing would hash real words.
    """
    params = params or WordCountParams()
    builder = TopologyBuilder("word-count")
    builder.add_spout(SPOUT, params.spout_parallelism)
    builder.add_bolt(SPLITTER, params.splitter_parallelism)
    builder.add_bolt(COUNTER, params.counter_parallelism)
    builder.connect(SPOUT, SPLITTER, ShuffleGrouping())
    builder.connect(
        SPLITTER,
        COUNTER,
        FieldsGrouping(["word"], params.corpus.word_distribution),
    )
    topology = builder.build()
    packing = RoundRobinPacking(Resources(cpu=1.0, ram_bytes=2 * 1024**3)).pack(
        topology, params.num_containers()
    )
    logic: dict[str, SpoutLogic | ComponentLogic] = {
        SPOUT: SpoutLogic(alphas={"default": 1.0}),
        SPLITTER: ComponentLogic(
            capacity_tps=11.0e6 / 60.0,
            alphas={"default": params.corpus.words_per_sentence()},
            input_tuple_bytes=60.0,
            capacity_noise=0.015,
        ),
        COUNTER: ComponentLogic(
            capacity_tps=70.0e6 / 60.0,
            alphas={},
            input_tuple_bytes=16.0,
            gateway_cores_per_tuple=1.2e-7,
            capacity_noise=0.015,
        ),
    }
    return topology, packing, logic


def demo_word_count(
    splitter: int, counter: int, seed: int, faults: "object | None" = None
) -> tuple[TopologyTracker, MetricsStore, dict[str, SpoutLogic | ComponentLogic]]:
    """Word Count swept over 4..44 M tuples/minute, two minutes a rate.

    Simulated into a fresh store (under ``faults``, an optional
    :class:`~repro.faults.plan.FaultPlan`) and registered in a fresh
    tracker; returns both and the component logic.  This is the
    deployment the CLI demos model and the accuracy runner calibrates.
    """
    topology, packing, logic = build_word_count(
        WordCountParams(
            splitter_parallelism=splitter, counter_parallelism=counter
        )
    )
    store = MetricsStore()
    sim = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=seed),
        faults=faults,
    )
    for rate in np.arange(4e6, 44e6 + 1, 8e6):
        sim.set_source_rate(SPOUT, float(rate))
        sim.run(2)
    tracker = TopologyTracker()
    tracker.register(topology, packing)
    return tracker, store, logic
