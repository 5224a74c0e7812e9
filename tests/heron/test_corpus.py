"""Tests for the synthetic corpus (the Gatsby substitute)."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.heron.corpus import SyntheticCorpus


class TestVocabulary:
    def test_words_are_unique(self):
        corpus = SyntheticCorpus(vocabulary_size=500)
        assert len(set(corpus.vocabulary)) == 500

    def test_vocabulary_is_deterministic(self):
        a = SyntheticCorpus(vocabulary_size=100).vocabulary
        b = SyntheticCorpus(vocabulary_size=100).vocabulary
        assert a == b

    def test_words_are_nonempty_lowercase(self):
        for word in SyntheticCorpus(vocabulary_size=50).vocabulary:
            assert word
            assert word == word.lower()


class TestDistribution:
    def test_word_distribution_matches_vocabulary(self):
        corpus = SyntheticCorpus(vocabulary_size=100)
        kd = corpus.word_distribution()
        assert kd.keys == corpus.vocabulary

    def test_default_shares_are_near_uniform(self):
        # The paper's dataset was "unbiased fortunately"; the default
        # corpus must reproduce that so fields grouping behaves per Eq. 9.
        corpus = SyntheticCorpus()
        for p in (2, 3, 4):
            shares = corpus.word_distribution().shares_mod(p)
            assert shares.max() <= 1.10 / p

    def test_high_zipf_creates_skew(self):
        skewed = SyntheticCorpus(zipf_exponent=1.4)
        shares = skewed.word_distribution().shares_mod(3)
        assert shares.max() > 1.3 / 3


class TestValidation:
    def test_mean_must_exceed_one(self):
        with pytest.raises(TopologyError):
            SyntheticCorpus(mean_sentence_words=0.5)

    def test_vocabulary_positive(self):
        with pytest.raises(TopologyError):
            SyntheticCorpus(vocabulary_size=0)
