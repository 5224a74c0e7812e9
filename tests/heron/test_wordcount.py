"""Tests for the Word Count topology factory (the paper's workload)."""

from __future__ import annotations

import pytest

from repro.heron import groupings
from repro.heron.groupings import FieldsGrouping, ShuffleGrouping
from repro.heron.simulation import (
    ComponentLogic,
    HeronSimulation,
    SimulationConfig,
    SpoutLogic,
)
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.store import MetricsStore


class TestStructure:
    def test_three_stage_shape(self):
        topology, _, _ = build_word_count()
        assert [c.name for c in topology.spouts()] == ["sentence-spout"]
        assert [c.name for c in topology.bolts()] == ["splitter", "counter"]

    def test_groupings_match_paper(self):
        """Spout->Splitter is shuffle; Splitter->Counter is fields."""
        topology, _, _ = build_word_count()
        (to_splitter,) = topology.inputs("splitter")
        (to_counter,) = topology.inputs("counter")
        assert isinstance(to_splitter.grouping, ShuffleGrouping)
        assert isinstance(to_counter.grouping, FieldsGrouping)
        assert to_counter.grouping.fields == ("word",)

    def test_default_parallelisms(self):
        topology, _, _ = build_word_count()
        assert topology.parallelism("sentence-spout") == 8  # paper default
        assert topology.parallelism("splitter") == 3
        assert topology.parallelism("counter") == 3

    def test_custom_parallelisms(self):
        params = WordCountParams(
            spout_parallelism=2, splitter_parallelism=5, counter_parallelism=7
        )
        topology, packing, _ = build_word_count(params)
        assert topology.parallelism("splitter") == 5
        assert packing.parallelism("counter") == 7


class TestLogic:
    def test_logic_types(self):
        _, _, logic = build_word_count()
        assert isinstance(logic["sentence-spout"], SpoutLogic)
        assert isinstance(logic["splitter"], ComponentLogic)
        assert isinstance(logic["counter"], ComponentLogic)

    def test_splitter_alpha_is_corpus_sentence_length(self):
        params = WordCountParams()
        _, _, logic = build_word_count(params)
        assert logic["splitter"].alphas["default"] == pytest.approx(
            params.corpus.words_per_sentence()
        )

    def test_counter_is_sink(self):
        _, _, logic = build_word_count()
        assert logic["counter"].alphas == {}

    def test_capacities_match_paper_scale(self):
        """Defaults tuned so the Splitter instance SP is ~11 M/min."""
        _, _, logic = build_word_count()
        assert logic["splitter"].capacity_tps * 60 == pytest.approx(11e6)
        assert logic["counter"].capacity_tps * 60 == pytest.approx(70e6)


class TestPacking:
    def test_default_density_two_per_container(self):
        params = WordCountParams()  # 8 + 3 + 3 = 14 instances
        _, packing, _ = build_word_count(params)
        assert packing.num_containers() == 7

    def test_explicit_container_count(self):
        params = WordCountParams(containers=3)
        _, packing, _ = build_word_count(params)
        assert packing.num_containers() == 3

    def test_paper_resources(self):
        _, packing, _ = build_word_count()
        instance = packing.all_instances()[0]
        assert instance.resources.cpu == 1.0
        assert instance.resources.ram_bytes == 2 * 1024**3


class TestDefaultCorpus:
    def test_two_builds_hash_the_vocabulary_once(self, monkeypatch):
        """Every ``WordCountParams()`` shares one default corpus, so two
        Word Count builds and their simulations hash its words once."""
        corpus = WordCountParams().corpus
        # Start from a corpus that has not built its distribution yet.
        monkeypatch.delitem(vars(corpus), "word_distribution", raising=False)
        hashed: list[str] = []
        stable_hash = groupings.stable_hash

        def counting_hash(key: str) -> int:
            hashed.append(key)
            return stable_hash(key)

        monkeypatch.setattr(groupings, "stable_hash", counting_hash)
        for seed in (1, 2):
            HeronSimulation(
                *build_word_count(WordCountParams()), MetricsStore(),
                SimulationConfig(seed=seed),
            )
        assert WordCountParams().corpus is corpus
        assert len(hashed) == corpus.vocabulary_size
