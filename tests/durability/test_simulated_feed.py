"""A simulator pointed at a durable store journals every sample.

The simulator flushes its first minute through the keyed loop and every
later one through a prepared ``MinuteBatch``; on a
:class:`DurableMetricsStore` both must reach the write-ahead log (a
batch path that skipped it would lose a whole run on restart) as one
group commit per simulated minute.
"""

from __future__ import annotations

import pytest

from repro.durability import DurableMetricsStore, store_content_hash
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.store import MetricsStore
from repro.workloads.generator import generate_workload

MINUTES = 6


def _word_count():
    return build_word_count(WordCountParams())


def _diamond():
    return generate_workload("diamond", seed=7).deployment()


def _simulate(deployment, store) -> list[str | None]:
    calls: list[str | None] = []
    store.add_invalidation_listener(calls.append)
    topology, packing, logic = deployment
    HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=11)
    ).run(MINUTES)
    return calls


@pytest.mark.parametrize("build", [_word_count, _diamond])
def test_reopened_durable_run_equals_the_in_memory_run(tmp_path, build):
    memory = MetricsStore()
    memory_calls = _simulate(build(), memory)

    with DurableMetricsStore(tmp_path, fsync="always") as durable:
        durable_calls = _simulate(build(), durable)
        live_hash = store_content_hash(durable)
        samples = durable.wal.appended
        # One group commit per simulated minute, not one per series.
        assert durable.wal.fsyncs <= MINUTES + 2
    assert durable_calls == memory_calls
    assert len(durable_calls) == MINUTES
    assert live_hash == store_content_hash(memory)

    with DurableMetricsStore(tmp_path) as reopened:
        assert store_content_hash(reopened) == store_content_hash(memory)
        assert reopened.recovery.replayed_records == samples
        assert reopened.recovery.skipped_records == 0
