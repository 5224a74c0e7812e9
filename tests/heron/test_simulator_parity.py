"""Bit-identity contract of the struct-of-arrays simulator core.

The engine in :mod:`repro.heron.simulation` must reproduce the scalar
engine it replaced *exactly* — same IEEE-754 operation sequence, same
RNG draw order, same per-minute samples to the last bit.  That engine is
gone from the tree (it lives in history: ``src/repro/heron/`` at commit
``094a9af`` has it, as the module suffixed ``_legacy``); what it produced
is committed under ``tests/data``.  Three layers of evidence:

* replays against committed golden hashes covering the configuration
  axes the default fixtures do not reach (sub-second ticks, finite
  stream-manager capacity, every fault kind, combined cases) and the
  full 40-cell scenario matrix;
* store-level replays of the Word Count deployment against digests of
  every series the scalar engine wrote — values, timestamps and the
  order the series were created in;
* unit coverage of the supporting machinery: the process-wide grouping
  shares memo and the store's batched minute-append fast path.

Regenerate the fixtures only for a deliberate numerics change::

    PYTHONPATH=src python tests/data/regenerate_sim_goldens.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import MetricsError
from repro.heron.simulation import (
    HeronSimulation,
    SimulationConfig,
    _SHARES_MEMO,
    _grouping_shares,
    warm_shares_memo,
)
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.store import MetricKey, MetricsStore

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

_CONFIGS = json.loads(
    (DATA_DIR / "golden_sim_configs.json").read_text()
)["configs"]
_MATRIX = json.loads(
    (DATA_DIR / "golden_matrix_cells_s7.json").read_text()
)


# ----------------------------------------------------------------------
# Golden-hash replays
# ----------------------------------------------------------------------
class TestConfigGoldens:
    @pytest.mark.parametrize(
        "config", _CONFIGS, ids=[c["id"] for c in _CONFIGS]
    )
    def test_replay_matches_committed_hash(self, config):
        from repro.workloads import trace_hash
        from repro.workloads.trace import config_trace

        trace = config_trace(
            config["shape"],
            config["seed"],
            minutes=config["minutes"],
            **config["kwargs"],
        )
        assert trace_hash(trace) == config["trace_hash"], config["id"]


class TestMatrixCellGoldens:
    def test_all_cells_match_committed_hashes(self):
        from repro.workloads import trace_hash
        from repro.workloads.matrix import default_grid, simulate_cell

        mismatched = []
        for cell in default_grid():
            _, _, trace = simulate_cell(
                cell, _MATRIX["matrix_seed"], _MATRIX["calibration_minutes"]
            )
            if trace_hash(trace) != _MATRIX["cells"][cell.id]:
                mismatched.append(cell.id)
        assert not mismatched
        assert len(_MATRIX["cells"]) == 40


# ----------------------------------------------------------------------
# Word Count store replays against the scalar engine's digests
# ----------------------------------------------------------------------
WORDCOUNT_CONFIGS = {
    "transparent": {},
    "finite_stmgr": {"stmgr_capacity_tps": 150_000.0},
    "tick_0.5": {"tick_seconds": 0.5},
}


def run_wordcount(**config_kwargs):
    topology, packing, logic = build_word_count(WordCountParams())
    store = MetricsStore()
    sim = HeronSimulation(
        topology, packing, logic, store,
        SimulationConfig(seed=42, **config_kwargs),
    )
    sim.set_source_rate("sentence-spout", 0.8 * 60_000)
    sim.run(4)
    return store


def _store_samples(store):
    return {
        repr(key): (list(buf.timestamps), list(buf.values))
        for key, buf in store._series.items()
    }


def store_digest(store):
    """Counts and SHA-256 digests of a store, in series-creation order.

    ``keys_sha256`` covers the series identities alone, so a mismatch
    says whether the order or the numbers moved (``json`` renders a
    float by ``repr``, which round-trips every bit).
    """
    series = [
        [key.name, list(key.tags), list(buf.timestamps), list(buf.values)]
        for key, buf in store._series.items()
    ]

    def sha256(payload):
        text = json.dumps(payload, separators=(",", ":"), allow_nan=False)
        return hashlib.sha256(text.encode("utf8")).hexdigest()

    return {
        "series": len(series),
        "samples": sum(len(entry[2]) for entry in series),
        "keys_sha256": sha256([entry[:2] for entry in series]),
        "samples_sha256": sha256(series),
    }


class TestStoreParity:
    @pytest.mark.parametrize("config_id", WORDCOUNT_CONFIGS)
    def test_wordcount_stores_identical(self, config_id):
        golden = json.loads(
            (DATA_DIR / "golden_wordcount_s42.json").read_text()
        )["configs"][config_id]
        store = run_wordcount(**WORDCOUNT_CONFIGS[config_id])
        assert store_digest(store) == golden

    def test_same_seed_runs_identical(self):
        first = _store_samples(run_wordcount())
        second = _store_samples(run_wordcount())
        assert first == second

    def test_injector_attribute_preserved(self):
        topology, packing, logic = build_word_count(WordCountParams())
        sim = HeronSimulation(
            topology, packing, logic, MetricsStore(),
            SimulationConfig(seed=1),
        )
        assert sim._injector is None


# ----------------------------------------------------------------------
# Grouping-shares memo
# ----------------------------------------------------------------------
class TestSharesMemo:
    def test_warm_covers_every_stream(self):
        topology, _, _ = build_word_count(WordCountParams())
        _SHARES_MEMO.clear()
        warmed = warm_shares_memo(topology)
        assert warmed == len(_SHARES_MEMO) > 0

    def test_memo_hit_returns_same_array(self):
        topology, _, _ = build_word_count(WordCountParams())
        stream = next(iter(topology.outputs("sentence-spout")))
        parallelism = topology.parallelism(stream.destination)
        first = _grouping_shares(stream.grouping, parallelism)
        second = _grouping_shares(stream.grouping, parallelism)
        assert first is second
        assert not first.flags.writeable

    def test_simulations_share_warmed_routing(self):
        topology, packing, logic = build_word_count(WordCountParams())
        _SHARES_MEMO.clear()
        warm_shares_memo(topology)
        populated = dict(_SHARES_MEMO)
        HeronSimulation(
            topology, packing, logic, MetricsStore(), SimulationConfig(seed=3)
        )
        for key, (grouping, shares) in populated.items():
            assert _SHARES_MEMO[key][1] is shares


# ----------------------------------------------------------------------
# Batched minute-append store fast path
# ----------------------------------------------------------------------
class TestMinuteBatchAppends:
    def _seeded_store(self):
        store = MetricsStore()
        keys = [
            MetricKey.of("execute-count", {"topology": "t", "instance": f"i{n}"})
            for n in range(3)
        ]
        for i, key in enumerate(keys):
            store.write(key.name, 60, float(i), key.tag_dict())
        return store, keys

    def test_batch_append_matches_keyed_writes(self):
        batched, keys = self._seeded_store()
        keyed, _ = self._seeded_store()
        batch = batched.make_minute_batch(keys)
        batched.append_minute_batch(batch, 120, [10.0, 11.0, 12.0], "t")
        for i, key in enumerate(keys):
            keyed.write(key.name, 120, 10.0 + i, key.tag_dict())
        assert _store_samples(batched) == _store_samples(keyed)
        assert batched.data_version("t") == keyed.data_version("t")

    def test_unknown_key_rejected(self):
        store, keys = self._seeded_store()
        missing = MetricKey.of("execute-count", {"instance": "absent"})
        with pytest.raises(MetricsError):
            store.make_minute_batch(keys + [missing])

    def test_non_monotonic_timestamp_rejected(self):
        store, keys = self._seeded_store()
        batch = store.make_minute_batch(keys)
        with pytest.raises(MetricsError):
            store.append_minute_batch(batch, 60, [1.0, 2.0, 3.0], "t")

    def test_listener_hears_each_simulated_minute_once(self):
        def run(listen):
            topology, packing, logic = build_word_count(WordCountParams())
            store = MetricsStore()
            calls = []
            if listen:
                store.add_invalidation_listener(calls.append)
            HeronSimulation(
                topology, packing, logic, store, SimulationConfig(seed=3)
            ).run(4)
            return store, calls

        quiet, _ = run(listen=False)
        heard, calls = run(listen=True)
        # One keyed minute, three prepared ones: a call each, same data.
        assert calls == ["word-count"] * 4
        assert _store_samples(heard) == _store_samples(quiet)
