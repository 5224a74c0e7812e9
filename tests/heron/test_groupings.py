"""Tests for stream groupings and key distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.heron import groupings
from repro.heron.corpus import SyntheticCorpus
from repro.heron.groupings import (
    AllGrouping,
    FieldsGrouping,
    GlobalGrouping,
    KeyDistribution,
    ShuffleGrouping,
    stable_hash,
)
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.store import MetricsStore


@pytest.fixture()
def uniform_keys() -> KeyDistribution:
    return KeyDistribution.uniform([f"key{i}" for i in range(1000)])


class TestKeyDistribution:
    def test_uniform_weights_sum_to_one(self, uniform_keys):
        assert np.isclose(uniform_keys.normalised_weights().sum(), 1.0)

    def test_zipf_is_rank_decreasing(self):
        kd = KeyDistribution.zipf(["a", "b", "c"], exponent=1.0)
        w = kd.normalised_weights()
        assert w[0] > w[1] > w[2]

    def test_zipf_exponent_zero_is_uniform(self):
        kd = KeyDistribution.zipf(["a", "b", "c"], exponent=0.0)
        assert np.allclose(kd.normalised_weights(), 1.0 / 3.0)

    def test_validation(self):
        with pytest.raises(TopologyError):
            KeyDistribution((), ())
        with pytest.raises(TopologyError):
            KeyDistribution(("a",), (-1.0,))
        with pytest.raises(TopologyError):
            KeyDistribution(("a", "b"), (1.0,))
        with pytest.raises(TopologyError):
            KeyDistribution(("a",), (0.0,))

    def test_shares_mod_sums_to_one(self, uniform_keys):
        for p in (1, 2, 3, 7):
            assert np.isclose(uniform_keys.shares_mod(p).sum(), 1.0)

    def test_diverse_keys_give_balanced_shares(self, uniform_keys):
        shares = uniform_keys.shares_mod(4)
        assert shares.max() < 0.30  # near 0.25 for 1000 uniform keys

    def test_skewed_keys_give_imbalanced_shares(self):
        kd = KeyDistribution(("hot", "cold"), (0.9, 0.1))
        shares = kd.shares_mod(2)
        assert shares.max() >= 0.9

    def test_imbalance_metric(self, uniform_keys):
        assert uniform_keys.imbalance(1) == pytest.approx(1.0)
        assert uniform_keys.imbalance(4) >= 1.0


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("word") == stable_hash("word")

    def test_spreads_keys(self):
        buckets = {stable_hash(f"key{i}") % 8 for i in range(100)}
        assert len(buckets) == 8


class TestShuffle:
    def test_even_shares(self):
        shares = ShuffleGrouping().shares(4)
        assert np.allclose(shares, 0.25)

    def test_parallelism_one(self):
        assert ShuffleGrouping().shares(1).tolist() == [1.0]

    def test_invalid_parallelism(self):
        with pytest.raises(TopologyError):
            ShuffleGrouping().shares(0)


class TestFields:
    def test_requires_fields(self, uniform_keys):
        with pytest.raises(TopologyError, match="at least one field"):
            FieldsGrouping([], uniform_keys)

    def test_shares_follow_distribution(self, uniform_keys):
        grouping = FieldsGrouping(["word"], uniform_keys)
        assert np.allclose(
            grouping.shares(3), uniform_keys.shares_mod(3)
        )

    def test_equality(self, uniform_keys):
        a = FieldsGrouping(["word"], uniform_keys)
        b = FieldsGrouping(["word"], uniform_keys)
        assert a == b
        assert a != ShuffleGrouping()


class TestOtherGroupings:
    def test_all_grouping_replicates(self):
        shares = AllGrouping().shares(3)
        assert shares.tolist() == [1.0, 1.0, 1.0]

    def test_global_grouping_targets_first(self):
        shares = GlobalGrouping().shares(3)
        assert shares.tolist() == [1.0, 0.0, 0.0]


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@given(
    n_keys=st.integers(min_value=1, max_value=200),
    parallelism=st.integers(min_value=1, max_value=16),
    exponent=st.floats(min_value=0.0, max_value=2.0),
)
def test_property_fields_shares_form_distribution(n_keys, parallelism, exponent):
    kd = KeyDistribution.zipf([f"k{i}" for i in range(n_keys)], exponent)
    shares = kd.shares_mod(parallelism)
    assert shares.shape == (parallelism,)
    assert np.all(shares >= 0)
    assert np.isclose(shares.sum(), 1.0)


@given(parallelism=st.integers(min_value=1, max_value=64))
def test_property_partitioning_groupings_sum_to_one(parallelism):
    for grouping in (ShuffleGrouping(), GlobalGrouping()):
        assert np.isclose(grouping.shares(parallelism).sum(), 1.0)


@given(parallelism=st.integers(min_value=1, max_value=32))
def test_property_all_grouping_amplifies_by_p(parallelism):
    assert AllGrouping().shares(parallelism).sum() == parallelism


class TestKeysHashedOnce:
    def test_two_simulations_hash_each_key_once(self, monkeypatch):
        """Keys are hashed once per distribution, however many
        simulations (and parallelisms) route by it, and once per corpus,
        however many topologies are built from it."""
        hashed: list[str] = []

        def counting_hash(key: str) -> int:
            hashed.append(key)
            return stable_hash(key)

        monkeypatch.setattr(groupings, "stable_hash", counting_hash)
        params = WordCountParams(corpus=SyntheticCorpus())
        topology, packing, logic = build_word_count(params)
        (stream,) = topology.inputs("counter")
        keys = stream.grouping.key_distribution.keys
        for seed in (1, 2):
            HeronSimulation(
                topology, packing, logic, MetricsStore(),
                SimulationConfig(seed=seed),
            )
        stream.grouping.shares(topology.parallelism("counter") + 3)
        HeronSimulation(
            *build_word_count(params), MetricsStore(), SimulationConfig()
        )
        assert sorted(hashed) == sorted(keys)
