"""Bit-identity contract of the struct-of-arrays simulator core.

The engine in :mod:`repro.heron.simulation` must reproduce the scalar
engine it replaced *exactly* — same IEEE-754 operation sequence, same
RNG draw order, same per-minute samples to the last bit.  That engine is
gone from the tree (it lives in history: ``src/repro/heron/`` at commit
``094a9af`` has it, as the module suffixed ``_legacy``); what it produced
is committed under ``tests/data``.  Three layers of evidence:

* replays against committed golden hashes covering the configuration
  axes the default fixtures do not reach (finite stream-manager
  capacity, every fault kind, combined cases) and the full 40-cell
  scenario matrix;
* store-level replays of the Word Count deployment against digests of
  every series the scalar engine wrote — values, timestamps and the
  order the series were created in — and the same digests, recorded
  before the tick learnt to skip work, for a run that leaves each of
  its fast paths (failing bolts, clipped spout edges, control calls
  off the minute), for finite stream managers at the ledger feed's
  scale, and for the ledger's free-flowing minutes, which the engine
  now steps as one block each, and the runs that leave a block;
* unit coverage of the supporting machinery: the store's batched
  minute-append fast path.

Regenerate the fixtures only for a deliberate numerics change::

    PYTHONPATH=src python tests/data/regenerate_sim_goldens.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import MetricsError
from repro.heron.simulation import HeronSimulation, SimulationConfig
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
# The tick's special cases, against the engine before it skipped work
# ----------------------------------------------------------------------
# ``golden_fast_paths_s5.json`` was recorded with the engine of commit
# ``51917f0``, the last one whose tick ran every step every tick: its
# digests hold the steps a tick now skips — exact identities known at
# construction (no failing bolt), the headroom clip's early-out, noise
# laid out once per minute — to the numbers the full steps gave.
FAST_PATH_CONFIGS = {
    "tick_1": {},
}


def run_fast_paths(**config_kwargs):
    """Five minutes of the ``multi_spout`` workload off every fast path.

    Two bolts fail tuples, one spout draws no rate noise and one bolt no
    capacity noise (their noise stays 1.0), watermarks are low enough
    that a straggling router's catch-up bursts clip the spout edges on
    some ticks and not on others, and the rate, a capacity factor, a
    crash across a minute close and a stream-manager stall change at
    seconds off the minute.  Returns the store and every clip factor the
    spouts took.
    """
    from repro.workloads.generator import generate_workload

    workload = generate_workload("multi_spout", 23)
    topology, packing, logic = workload.deployment()
    logic = {
        **logic,
        "events": replace(logic["events"], rate_noise=0.0),
        "router": replace(logic["router"], failure_rate=0.03),
        "agg": replace(logic["agg"], failure_rate=0.05),
        "archive": replace(logic["archive"], capacity_noise=0.0),
    }
    store = MetricsStore()
    sim = HeronSimulation(
        topology, packing, logic, store,
        SimulationConfig(
            seed=5, high_watermark_bytes=4e6, low_watermark_bytes=2e6,
            **config_kwargs,
        ),
    )
    clips = []
    headroom_clip = sim._headroom_clip

    def recorded(*args):
        clips.append(headroom_clip(*args))
        return clips[-1]

    sim._headroom_clip = recorded
    base = workload.base_rate_tpm
    steps = [
        (61, lambda: workload.set_source_rates(sim, 2.0 * base)),
        (67, lambda: sim.set_instance_capacity_factor("router", 1, 0.1)),
        (151, lambda: sim.set_instance_capacity_factor("router", 1, 1.0)),
        (152, lambda: workload.set_source_rates(sim, 0.7 * base)),
        (163, lambda: sim.crash_instance("agg", 0)),
        (187, lambda: sim.restore_instance("agg", 0)),
        (241, lambda: sim.stall_stream_manager(2)),
        (256, lambda: sim.resume_stream_manager(2)),
    ]
    workload.set_source_rates(sim, 0.6 * base)
    for second, step in steps:
        sim.run_seconds(second - sim.now)
        step()
    sim.run_seconds(300 - sim.now)
    return store, clips


class TestFastPathGoldens:
    @pytest.mark.parametrize("config_id", FAST_PATH_CONFIGS)
    def test_store_matches_the_full_tick(self, config_id):
        golden = json.loads(
            (DATA_DIR / "golden_fast_paths_s5.json").read_text()
        )["configs"][config_id]
        store, clips = run_fast_paths(**FAST_PATH_CONFIGS[config_id])
        # The scenario reaches what it is for: clipped and unclipped
        # spout ticks, and failed tuples.
        assert min(clips) < 1.0 == max(clips)
        assert sum(
            sum(buf.values)
            for key, buf in store._series.items()
            if key.name == "fail-count"
        ) > 0
        assert store_digest(store) == golden


# ----------------------------------------------------------------------
# Finite stream managers at the ledger feed's scale
# ----------------------------------------------------------------------
# ``golden_finite_stmgr_s7.json`` was recorded with the engine of commit
# ``82cc218``, the last that kept each stream manager's queue as its own
# per-component arrays.  A container's queued total is a sum over its
# components, each reduced on its own, in the order they first queued;
# a reordered or whole-row sum moves these digests, and so does summing
# in arena order where a spout starting late makes the components queue
# in another order (``fanin``: ``clean_orders`` queues last).
FINITE_STMGR_SHAPES = {"deep_chain": 250, "diamond": 200, "multi_spout": 120}
FINITE_STMGR_CONFIGS = {
    **{
        f"{shape}_{instances}_stmgr_{label}": {
            "shape": shape,
            "instances": instances,
            "stmgr_capacity_tps": capacity,
        }
        for shape, instances in FINITE_STMGR_SHAPES.items()
        for label, capacity in (("20k", 2e4), ("60k", 6e4))
    },
    "fanin_160_stmgr_20k_late": {
        "shape": "fanin",
        "instances": 160,
        "stmgr_capacity_tps": 2e4,
        "late": True,
    },
}


def run_finite_stmgr(shape, instances, stmgr_capacity_tps, late=False):
    """Three minutes of a ledger feed shape behind finite stream managers.

    The topology is built as the tick-cost ratchet builds it and runs at
    0.9x its base rate (with ``late``, its first spout's source starts at
    second 23); container 2's stream manager stalls from second 41 to
    58, and the second bolt's instance 3 is down from second 97 to 131,
    across a minute close.  Returns the store and the ticks on which only
    a stream manager held backpressure.
    """
    from benchmarks.ledger.inputs import TopologySpec, build_deployment
    from repro.workloads import workload_seed

    deployment = build_deployment(
        TopologySpec(shape, workload_seed(7, shape), instances)
    )
    store = MetricsStore()
    sim = HeronSimulation(
        deployment.topology, deployment.packing, deployment.workload.logic,
        store,
        SimulationConfig(seed=7, stmgr_capacity_tps=stmgr_capacity_tps),
    )

    def full_rate():
        deployment.workload.set_source_rates(
            sim, 0.9 * deployment.workload.base_rate_tpm
        )

    full_rate()
    if late:
        sim.set_source_rate(deployment.topology.spouts()[0].name, 0.0)
    bolt = [
        c.name for c in deployment.topology.topological_order()
        if not c.is_spout
    ][1]
    steps = {
        23: full_rate,
        41: lambda: sim.stall_stream_manager(2),
        58: lambda: sim.resume_stream_manager(2),
        97: lambda: sim.crash_instance(bolt, 3),
        131: lambda: sim.restore_instance(bolt, 3),
    }
    stmgr_held = 0
    for second in range(180):
        if second in steps:
            steps[second]()
        sim.run_seconds(1)
        if sim.backpressure_active() and not sim.backpressure_components():
            stmgr_held += 1
    return store, stmgr_held


class TestFiniteStmgrGoldens:
    @pytest.mark.parametrize("config_id", FINITE_STMGR_CONFIGS)
    def test_store_matches_the_per_component_queues(self, config_id):
        golden = json.loads(
            (DATA_DIR / "golden_finite_stmgr_s7.json").read_text()
        )["configs"][config_id]
        store, stmgr_held = run_finite_stmgr(
            **FINITE_STMGR_CONFIGS[config_id]
        )
        if "_20k" in config_id:
            # The binding capacity raises the stream managers' own flag.
            assert stmgr_held > 0
        assert store_digest(store) == golden


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


# ----------------------------------------------------------------------
# Free-flowing minutes: the ledger's traffic and the ways out of a block
# ----------------------------------------------------------------------
# ``golden_free_minutes_s7.json`` was recorded with the engine of commit
# ``5874f3e``, the last that stepped every minute tick by tick.  Its
# digests cover the traffic the ledger simulates — ``deep_chain`` at 1000
# and 90 instances and the four shapes at 40 over the ledger's level
# schedule, Word Count at the ledger's rate — plus the runs that leave a
# block: a rate stepping into saturation at a minute boundary and back
# out off it, ``run_seconds`` calls split off the minute, and a crash
# inside one minute.
FREE_MINUTE_SHAPES = ("diamond", "fanin", "deep_chain", "multi_spout")
FREE_MINUTE_CONFIGS = {
    "deep_chain_1000_levels": {"shape": "deep_chain", "instances": 1000},
    "deep_chain_90_levels": {"shape": "deep_chain", "instances": 90},
    **{
        f"{shape}_40_levels": {"shape": shape, "instances": 40}
        for shape in FREE_MINUTE_SHAPES
    },
    "word_count_ledger_rate": {"shape": "word_count"},
    "deep_chain_90_saturating": {
        "shape": "deep_chain", "instances": 90, "scenario": "saturating",
    },
    "deep_chain_90_split_calls": {
        "shape": "deep_chain", "instances": 90, "scenario": "split",
    },
    "deep_chain_90_crash_in_minute": {
        "shape": "deep_chain", "instances": 90, "scenario": "crash",
    },
}


def run_free_minutes(shape, instances=None, scenario="levels"):
    """Six simulated minutes of one ledger topology (seed 7).

    ``levels`` steps through the ledger's load levels a minute each;
    ``saturating`` runs two minutes at 0.7x base, steps to 4x at the
    minute boundary, and back to 0.5x at second 190; ``split`` runs 0.7x
    in calls of 30, 100, 110, 5, 55 and 60 seconds; ``crash`` runs 0.7x
    with the second bolt's instance 2 down from second 75 to 95.
    Word Count runs at the ledger's rate.  Returns the store and the
    number of ticks the engine stepped one at a time.
    """
    from benchmarks.ledger import inputs
    from benchmarks.ledger.e2e import WORD_COUNT_RATE_TPM
    from repro.faults.plan import FaultEvent, FaultPlan
    from repro.workloads import workload_seed

    store = MetricsStore()
    if shape == "word_count":
        topology, packing, logic = build_word_count(WordCountParams())
        sim = HeronSimulation(
            topology, packing, logic, store,
            SimulationConfig(seed=inputs.sim_seed(7, "word-count")),
        )
        sim.set_source_rate("sentence-spout", WORD_COUNT_RATE_TPM)
        ticks = _count_ticks(sim)
        sim.run(6)
        return store, ticks[0]
    deployment = inputs.build_deployment(
        inputs.TopologySpec(shape, workload_seed(7, shape), instances)
    )
    faults = None
    if scenario == "crash":
        bolt = [
            c.name for c in deployment.topology.topological_order()
            if not c.is_spout
        ][1]
        faults = FaultPlan(events=(
            FaultEvent(
                at_seconds=75, kind="crash", component=bolt, index=2,
                duration_seconds=20,
            ),
        ))
    sim = HeronSimulation(
        deployment.topology, deployment.packing, deployment.workload.logic,
        store,
        SimulationConfig(seed=inputs.sim_seed(7, deployment.name)),
        faults=faults,
    )
    ticks = _count_ticks(sim)
    if scenario == "levels":
        inputs.run_levels(deployment, sim, inputs.level_schedule(6))
        return store, ticks[0]
    # Second -> load level set there (``None``: a call ends there).
    schedule = {
        "saturating": {0: 0.7, 120: 4.0, 190: 0.5},
        "split": {0: 0.7, 30: None, 130: None, 240: None, 245: None, 300: None},
        "crash": {0: 0.7},
    }[scenario]
    for second, level in schedule.items():
        sim.run_seconds(second - sim.now)
        if level is not None:
            deployment.workload.set_source_rates(
                sim, level * deployment.workload.base_rate_tpm
            )
    sim.run_seconds(360 - sim.now)
    return store, ticks[0]


def _count_ticks(sim):
    """Count the ticks ``sim`` steps one at a time, into a one-item list."""
    counted = [0]
    tick = sim._tick

    def counting():
        counted[0] += 1
        tick()

    sim._tick = counting
    return counted


class TestFreeMinuteGoldens:
    @pytest.mark.parametrize("config_id", FREE_MINUTE_CONFIGS)
    def test_store_matches_the_tick_by_tick_engine(self, config_id):
        golden = json.loads(
            (DATA_DIR / "golden_free_minutes_s7.json").read_text()
        )["configs"][config_id]
        config = FREE_MINUTE_CONFIGS[config_id]
        store, ticks = run_free_minutes(**config)
        # The ledger's traffic steps every minute as a block; each other
        # run steps some minutes tick by tick and returns to blocks.
        if config.get("scenario", "levels") == "levels":
            assert ticks == 0
        else:
            assert 0 < ticks < 360
        assert store_digest(store) == golden
