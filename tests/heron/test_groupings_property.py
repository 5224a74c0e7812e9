"""Property tests (hypothesis) for stream groupings.

The routing invariants the whole modelling stack leans on: partitioning
groupings conserve tuple mass, fields routing is a pure function of the
key (stable across calls and across instances-of-the-same-parallelism),
and shuffle stays balanced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heron.groupings import (
    FieldsGrouping,
    KeyDistribution,
    ShuffleGrouping,
    stable_hash,
)

parallelisms = st.integers(min_value=1, max_value=64)

keys = st.text(
    alphabet=st.characters(codec="utf-8", categories=("L", "N")),
    min_size=1,
    max_size=12,
)

distributions = st.builds(
    lambda pairs: KeyDistribution(
        keys=tuple(k for k, _ in pairs),
        weights=tuple(w for _, w in pairs),
    ),
    st.lists(
        st.tuples(
            keys,
            st.floats(min_value=0.01, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=40,
        unique_by=lambda pair: pair[0],
    ),
)


class TestFieldsGrouping:
    @given(dist=distributions, p=parallelisms)
    @settings(max_examples=200, deadline=None)
    def test_conserves_total_tuple_mass(self, dist, p):
        """Shares sum to 1: every tuple lands on exactly one instance."""
        shares = FieldsGrouping(("word",), dist).shares(p)
        assert shares.shape == (p,)
        assert np.all(shares >= 0)
        assert float(shares.sum()) == pytest.approx(1.0, rel=1e-9)

    @given(dist=distributions, p=parallelisms)
    @settings(max_examples=100, deadline=None)
    def test_key_stable(self, dist, p):
        """Routing is a pure function: same keys → same shares, always."""
        grouping = FieldsGrouping(("word",), dist)
        first = grouping.shares(p)
        second = grouping.shares(p)
        assert np.array_equal(first, second)
        rebuilt = FieldsGrouping(("word",), KeyDistribution(
            dist.keys, dist.weights
        ))
        assert np.array_equal(first, rebuilt.shares(p))

    @given(key=keys, p=parallelisms)
    @settings(max_examples=200, deadline=None)
    def test_single_key_routes_to_its_hash_slot(self, key, p):
        """All of one key's mass lands on hash(key) % p — Heron routing."""
        dist = KeyDistribution((key,), (1.0,))
        shares = FieldsGrouping(("word",), dist).shares(p)
        expected = np.zeros(p)
        expected[stable_hash(key) % p] = 1.0
        assert np.allclose(shares, expected)

    @given(dist=distributions, p=parallelisms)
    @settings(max_examples=100, deadline=None)
    def test_scaling_preserves_mass(self, dist, p):
        """Changing parallelism reshuffles keys but loses none."""
        grouping = FieldsGrouping(("word",), dist)
        for q in (1, p, 2 * p):
            assert float(grouping.shares(q).sum()) == pytest.approx(1.0, rel=1e-9)


class TestShuffleGrouping:
    @given(p=parallelisms)
    @settings(max_examples=100, deadline=None)
    def test_balanced_within_tolerance(self, p):
        """Every instance gets exactly 1/p (Eq. 8) — no skew at all."""
        shares = ShuffleGrouping().shares(p)
        assert shares.shape == (p,)
        assert float(shares.sum()) == pytest.approx(1.0, rel=1e-9)
        assert float(shares.max() - shares.min()) < 1e-12
        assert np.allclose(shares, 1.0 / p)


class TestZipfFieldsRouting:
    """Zipf-skewed fields routing with s >= 1.5 — the generator's regime.

    The workload generator leans on heavily skewed key distributions;
    these properties pin down that the skew changes *where* mass lands,
    never *how much*: routing stays a deterministic pure function of
    ``stable_hash(key) % p`` and totals conserve tuple counts exactly.
    """

    key_counts = st.integers(min_value=2, max_value=200)
    exponents = st.floats(
        min_value=1.5, max_value=3.0, allow_nan=False, allow_infinity=False
    )

    @given(n=key_counts, s=exponents, p=parallelisms)
    @settings(max_examples=150, deadline=None)
    def test_per_key_routing_matches_hash_mod(self, n, s, p):
        """Shares re-derived independently key-by-key match exactly."""
        dist = KeyDistribution.zipf([f"key-{i}" for i in range(n)], s)
        shares = FieldsGrouping(("key",), dist).shares(p)
        expected = np.zeros(p)
        for key, weight in zip(dist.keys, dist.normalised_weights()):
            expected[stable_hash(key) % p] += weight
        assert np.allclose(shares, expected, rtol=0, atol=1e-12)

    @given(n=key_counts, s=exponents, p=parallelisms)
    @settings(max_examples=150, deadline=None)
    def test_totals_conserve_tuple_counts(self, n, s, p):
        """Routing a concrete tuple rate loses and invents nothing."""
        dist = KeyDistribution.zipf([f"key-{i}" for i in range(n)], s)
        shares = FieldsGrouping(("key",), dist).shares(p)
        total_tpm = 6.0e6
        per_instance = shares * total_tpm
        assert np.all(per_instance >= 0)
        assert float(per_instance.sum()) == pytest.approx(
            total_tpm, rel=1e-9
        )

    @given(n=key_counts, s=exponents, p=parallelisms)
    @settings(max_examples=100, deadline=None)
    def test_deterministic_across_rebuilds(self, n, s, p):
        """Same (keys, exponent) always yields the same share vector."""
        keys = [f"key-{i}" for i in range(n)]
        first = FieldsGrouping(("key",), KeyDistribution.zipf(keys, s))
        second = FieldsGrouping(("key",), KeyDistribution.zipf(keys, s))
        assert np.array_equal(first.shares(p), second.shares(p))
        assert np.array_equal(
            first.shares(p), first.key_distribution.shares_mod(p)
        )

    @given(n=key_counts, p=parallelisms)
    @settings(max_examples=50, deadline=None)
    def test_skew_concentrates_mass_without_losing_it(self, n, p):
        """Higher exponent piles mass onto the head key's instance."""
        keys = [f"key-{i}" for i in range(n)]
        skewed = FieldsGrouping(
            ("key",), KeyDistribution.zipf(keys, 2.5)
        ).shares(p)
        head_slot = stable_hash(keys[0]) % p
        head_weight = KeyDistribution.zipf(keys, 2.5).normalised_weights()[0]
        assert skewed[head_slot] >= head_weight - 1e-12
        assert float(skewed.sum()) == pytest.approx(1.0, rel=1e-9)


def per_key_shares(dist: KeyDistribution, p: int) -> np.ndarray:
    """The reference: one key at a time, hashed where it is routed.

    ``shares_mod`` computed exactly this until the keys were hashed once
    per distribution and the weights added by ``np.bincount``.
    """
    shares = np.zeros(p, dtype=np.float64)
    for key, weight in zip(dist.keys, dist.normalised_weights()):
        shares[stable_hash(key) % p] += weight
    return shares


@st.composite
def vocabularies(draw):
    """A Zipf, uniform or zero-holding vocabulary, and a parallelism from
    one instance to more instances than keys."""
    n = draw(st.integers(min_value=1, max_value=300))
    prefix = draw(st.sampled_from(["w", "key-", "k"]))
    keys = [f"{prefix}{i}" for i in range(n)]
    kind = draw(st.sampled_from(["zipf", "uniform", "zeros"]))
    if kind == "zipf":
        dist = KeyDistribution.zipf(
            keys, draw(st.floats(min_value=0.0, max_value=3.0))
        )
    elif kind == "uniform":
        dist = KeyDistribution.uniform(keys)
    else:
        weights = draw(
            st.lists(
                st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.25, 1e-9]),
                min_size=n,
                max_size=n,
            ).filter(any)
        )
        dist = KeyDistribution(tuple(keys), tuple(weights))
    return dist, draw(st.integers(min_value=1, max_value=n + 16))


class TestSharesMatchPerKeyLoop:
    """``shares_mod`` is the per-key loop, bit for bit."""

    @given(case=vocabularies())
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    def test_bit_identical_to_the_per_key_loop(self, case):
        dist, p = case
        shares = dist.shares_mod(p)
        expected = per_key_shares(dist, p)
        assert shares.dtype == np.float64 and shares.shape == (p,)
        assert shares.tobytes() == expected.tobytes()
