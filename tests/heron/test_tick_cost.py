"""A cost ratchet on the simulator's tick, counted in bytecode.

A tick is a fixed sequence of numpy calls whose number, not their size,
sets its cost at the topology sizes the ledger and the accuracy runs
simulate (tens to a few hundred instances).  Wall time on a shared
machine is too noisy for tier-1; the opcodes the interpreter runs and
the Python frames it enters are exact.  Both are counted with the
``sys.settrace`` tracer of the write-path ratchet over one steady-state
minute — every tick of it, the minute's noise draw and its close
included — and divided by the minute's ticks, for four topologies:

* ``deep_chain_250``: the ledger's feed topology (``deep_chain``) scaled
  to 250 instances, as ``cold_queries`` and ``warm_queries`` run it;
* ``multi_spout_40``: three spouts and named streams at 40 instances,
  the size of the ledger's query corpus;
* ``deep_chain_250_stmgr_20k``: the feed topology behind finite stream
  managers of 2e4 tuples per second, which bind at this rate (the
  ablation of the paper's assumption that they never do);
* ``deep_chain_250_saturated``: the feed topology at 4x its base rate,
  where it queues on every tick, so every minute steps tick by tick.

The first three run at 0.7x base.  On CPython 3.11 a tick measured
2376.6 opcodes / 36.3 calls (``deep_chain_250``) and 1847.6 / 31.3
(``multi_spout_40``) while every tick ran every step, and 1422.1 / 27.5
and 1108.1 / 17.5 once the tick skipped what construction or the
minute's noise draw had already fixed.  ``deep_chain_250_stmgr_20k``
measured 24606.5 / 865.7 while each container's stream manager kept its
own per-component queue arrays and a tick looped over them in Python,
and 1556.4 / 27.7 once the queues became one block of the arenas (the
transparent shapes then read 1409.1 / 26.5 and 1095.1 / 16.5).  Once
the engine stepped only whole seconds, so that a tick passed no step
length and tested no scaling flag, the three read 1392.9 / 26.5, 1078.9
/ 16.5 and 1539.3 / 27.65 (and ``deep_chain_250_saturated`` 1319.0 /
24.7).  Since a free-flowing minute is one block of 60 ticks, the two
transparent shapes count a block's cost per tick, 42.7 / 1.12 and 36.6
/ 0.82; a tick that steps alone enters three more helpers, the ones it
shares with the block (noisy rates, spout emissions, tick metrics), so
the other two read 1578.2 / 30.67 and 1357.1 / 27.7, their bounds since.
Each bound below holds its shape's count when the bound was set, on
3.11; other interpreters count differently.  Run as a module (``python
-m tests.heron.test_tick_cost``) it prints the counts as JSON.
"""

from __future__ import annotations

import json
import sys

import pytest

from benchmarks.ledger.inputs import TopologySpec, build_deployment, sim_seed
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.timeseries.store import MetricsStore
from repro.workloads import workload_seed
from tests.durability.test_write_path_cost import count

_DEEP_CHAIN_250 = TopologySpec("deep_chain", workload_seed(7, "deep_chain"), 250)
#: The counted topologies: their stream managers' capacity in tuples per
#: second (``None``: transparent) and the load level they run at (x base).
SHAPES = {
    "deep_chain_250": (_DEEP_CHAIN_250, None, 0.7),
    "multi_spout_40": (
        TopologySpec("multi_spout", workload_seed(7, "multi_spout"), 40),
        None,
        0.7,
    ),
    "deep_chain_250_stmgr_20k": (_DEEP_CHAIN_250, 2e4, 0.7),
    "deep_chain_250_saturated": (_DEEP_CHAIN_250, None, 4.0),
}
#: CPython 3.11's bounds: opcodes and Python calls per tick.
BOUNDS = {
    "deep_chain_250": (42.7, 1.12),
    "multi_spout_40": (36.6, 0.82),
    "deep_chain_250_stmgr_20k": (1578.2, 30.67),
    "deep_chain_250_saturated": (1357.1, 27.7),
}


def simulation(label: str) -> HeronSimulation:
    """A shape's simulation at its load level, two minutes in.

    The first minute close compiles the series layout and writes keyed;
    the second resolves the prepared batch.
    """
    spec, stmgr_capacity_tps, level = SHAPES[label]
    deployment = build_deployment(spec)
    simulation = HeronSimulation(
        deployment.topology,
        deployment.packing,
        deployment.workload.logic,
        MetricsStore(),
        SimulationConfig(
            seed=sim_seed(7, deployment.name),
            stmgr_capacity_tps=stmgr_capacity_tps,
        ),
    )
    deployment.workload.set_source_rates(
        simulation, level * deployment.workload.base_rate_tpm
    )
    simulation.run(2)
    return simulation


def measure() -> dict[str, float]:
    """Opcodes and calls per tick for every shape, averaged over a minute.

    Two minutes run untraced first (:func:`simulation`) and two are
    traced, of which the second is kept: from Python 3.12 on, the first
    traced run of a function misses some of its opcodes.
    """
    counts: dict[str, float] = {}
    for label in SHAPES:
        sim = simulation(label)
        count(lambda: sim.run(1))
        opcodes, calls = count(lambda: sim.run(1))
        counts[f"{label}_opcodes"] = opcodes / 60
        counts[f"{label}_calls"] = calls / 60
    return counts


def test_the_saturated_shape_queues_on_every_tick():
    """So its minutes are never a block: it holds the tick's own cost."""
    sim = simulation("deep_chain_250_saturated")
    bolts = [c.name for c in sim.topology.components.values() if not c.is_spout]
    for _ in range(60):
        sim.run_seconds(1)
        assert any(sim.queue_tuples(name).any() for name in bolts)


@pytest.fixture(scope="module")
def costs() -> dict[str, float]:
    return measure()


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="counts measured on 3.11"
)
@pytest.mark.parametrize("label", SHAPES)
def test_tick_cost_on_3_11(costs, label):
    opcodes, calls = BOUNDS[label]
    assert costs[f"{label}_opcodes"] <= opcodes
    assert costs[f"{label}_calls"] <= calls


if __name__ == "__main__":
    print(json.dumps(measure(), sort_keys=True))
