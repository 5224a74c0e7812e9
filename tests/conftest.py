"""Shared fixtures: a small simulated Word Count deployment.

The heavyweight fixtures are session-scoped: one short simulation sweep
feeds the calibration, model and API tests, mirroring how a real
Caladrius deployment reads one shared metrics database.
"""

from __future__ import annotations

import sys

# Compile once: write bytecode for every module the suite imports even
# where the environment sets ``PYTHONDONTWRITEBYTECODE``, so a second run
# neither recompiles ``src/`` nor re-rewrites the asserts of each test
# module.  Set before this file imports anything and before collection.
sys.dont_write_bytecode = False

import numpy as np
import pytest

from repro.config import load_config
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.tracker import TopologyTracker
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.store import MetricsStore
from tests import source_index

M = 1e6


@pytest.fixture(scope="session")
def src_index() -> source_index.SourceIndex:
    """``src/repro`` parsed once for all the structure-guard modules."""
    return source_index.build()


@pytest.fixture(scope="session")
def wordcount_params() -> WordCountParams:
    """Small Word Count: Splitter p=2, Counter p=4, quick to simulate."""
    return WordCountParams(
        spout_parallelism=4,
        splitter_parallelism=2,
        counter_parallelism=4,
    )


@pytest.fixture(scope="session")
def deployed_wordcount(wordcount_params):
    """A Word Count deployment swept over source rates, with metrics.

    Returns ``(topology, packing, logic, store, tracker)``.  The sweep
    covers the linear region and saturation of the p=2 Splitter
    (SP = 22 M tuples/min), 2 minutes per rate.
    """
    topology, packing, logic = build_word_count(wordcount_params)
    store = MetricsStore()
    sim = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=42)
    )
    for rate in np.arange(4 * M, 44 * M + 1, 8 * M):
        sim.set_source_rate("sentence-spout", float(rate))
        sim.run(2)
    tracker = TopologyTracker()
    tracker.register(topology, packing)
    return topology, packing, logic, store, tracker


@pytest.fixture(scope="session")
def seasonal_series():
    """Two weeks of per-minute seasonal traffic for forecasting tests."""
    from repro.timeseries.series import TimeSeries

    rng = np.random.default_rng(7)
    step = 600
    n = 14 * 144
    t = np.arange(n) * step
    day = 86_400
    y = (
        5 * M
        + 2 * M * np.sin(2 * np.pi * t / day)
        + 0.4 * M * np.sin(2 * np.pi * t / (7 * day))
        + t * 2.0
        + rng.normal(0.0, 0.15 * M, n)
    )
    return TimeSeries(t, y)


@pytest.fixture()
def default_config():
    """A validated default service configuration."""
    return load_config({})
