"""A free-flowing minute stepped as one block equals its sixty ticks.

``HeronSimulation.run_seconds`` steps a minute it covers whole, from the
minute's boundary, as one block of 60 ticks when nothing queues in it,
and tick by tick otherwise; a one-second call never covers a minute, so
it always steps a tick.  For random generated topologies, seeds and load
levels from 0.2x to 1.6x base — which crosses saturation for some of
them, so blocks are taken, rejected and resumed — ``run(1)`` per level
and sixty ``run_seconds(1)`` calls per level must leave byte-equal
stores and byte-equal engines.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heron.simulation import (
    ComponentLogic,
    HeronSimulation,
    SimulationConfig,
    SpoutLogic,
)
from repro.timeseries.store import MetricsStore
from repro.workloads.generator import SHAPES, generate_workload
from tests.heron.test_simulator_parity import store_digest

#: The engine's scalar state besides its arrays.
SCALARS = ("_now", "_minute_start", "_minute_ticks", "_topology_bp_ms",
           "_noise_cursor")


def simulate(
    shape, seed, sim_seed, levels, failing, tight, straggler, one_second_calls
):
    """One minute per load level, in minute or one-second calls.

    With ``failing`` the last bolt fails tuples, so blocks run the
    failure path; with ``tight`` every spout fetches at most its
    configured rate, so a source above it (rate noise above 1) leaves a
    backlog and rejects the block; a ``straggler`` factor slows the
    first bolt's instance 0, which then saturates at a lower level.
    """
    workload = generate_workload(shape, seed)
    topology, packing, logic = workload.deployment()
    if failing:
        name = [n for n, spec in logic.items()
                if isinstance(spec, ComponentLogic)][-1]
        logic = {**logic, name: replace(logic[name], failure_rate=0.05)}
    if tight:
        logic = {
            name: replace(spec, fetch_multiplier=1.0)
            if isinstance(spec, SpoutLogic) else spec
            for name, spec in logic.items()
        }
    store = MetricsStore()
    sim = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=sim_seed)
    )
    if straggler is not None:
        sim.set_instance_capacity_factor(topology.bolts()[0].name, 0, straggler)
    for level in levels:
        workload.set_source_rates(sim, level * workload.base_rate_tpm)
        if one_second_calls:
            for _ in range(60):
                sim.run_seconds(1)
        else:
            sim.run(1)
    return store, sim


def engine_state(sim):
    """Every array the engine holds, as bytes, and its scalar state."""
    arrays = {
        name: (value.dtype.str, value.shape, value.tobytes())
        for name, value in vars(sim).items()
        if isinstance(value, np.ndarray)
    }
    arrays["row"] = sim._f.buf.tobytes()
    arrays["accumulators"] = sim._acc.buf.tobytes()
    return arrays, [getattr(sim, name) for name in SCALARS]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    seed=st.integers(0, 40),
    sim_seed=st.integers(0, 2**16),
    levels=st.lists(st.floats(0.2, 1.6), min_size=1, max_size=3),
    failing=st.booleans(),
    tight=st.booleans(),
    straggler=st.sampled_from([None, 0.4, 0.7]),
)
def test_minute_calls_equal_one_second_calls(
    shape, seed, sim_seed, levels, failing, tight, straggler
):
    args = (shape, seed, sim_seed, levels, failing, tight, straggler)
    blocks, block_sim = simulate(*args, one_second_calls=False)
    ticks, tick_sim = simulate(*args, one_second_calls=True)
    assert store_digest(blocks) == store_digest(ticks)
    assert engine_state(block_sim) == engine_state(tick_sim)
