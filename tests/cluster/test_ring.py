"""Consistent-hash ring: determinism, balance, minimal movement."""

from __future__ import annotations

import pytest

from repro.cluster.ring import DEFAULT_VIRTUAL_NODES, HashRing

KEYS = [f"topology-{i}" for i in range(500)]


class TestConstruction:
    def test_rejects_empty_membership(self):
        with pytest.raises(ValueError, match="at least one shard"):
            HashRing([])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            HashRing([0, 1, 1])

    def test_rejects_non_positive_virtual_nodes(self):
        with pytest.raises(ValueError, match="virtual_nodes"):
            HashRing([0], virtual_nodes=0)

    def test_membership_order_is_irrelevant(self):
        assert HashRing([2, 0, 1]) == HashRing([0, 1, 2])

    def test_equality_covers_virtual_nodes(self):
        assert HashRing([0, 1], 16) != HashRing([0, 1], 64)


class TestPlacement:
    def test_deterministic_across_instances(self):
        # Two independently built rings (as in router vs client) must
        # agree on every placement; sha256 makes this PYTHONHASHSEED-proof.
        a, b = HashRing([0, 1, 2, 3]), HashRing([0, 1, 2, 3])
        assert [a.shard_for(k) for k in KEYS] == [b.shard_for(k) for k in KEYS]

    def test_single_shard_owns_everything(self):
        ring = HashRing([7])
        assert {ring.shard_for(k) for k in KEYS} == {7}

    def test_ownership_partitions_the_keyspace(self):
        ring = HashRing([0, 1, 2, 3])
        assert {ring.shard_for(k) for k in KEYS} == {0, 1, 2, 3}

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing([0, 1, 2, 3], DEFAULT_VIRTUAL_NODES)
        owners = [ring.shard_for(k) for k in KEYS]
        counts = [owners.count(shard) for shard in ring.shard_ids]
        # 500 keys over 4 shards averages 125; virtual nodes keep every
        # shard within a loose factor of that.
        assert min(counts) > 125 / 3
        assert max(counts) < 125 * 3

    def test_demo_names_spread_over_four_shards(self):
        # The scale-out benchmark relies on the demo topologies not all
        # landing on one shard.
        ring = HashRing([0, 1, 2, 3])
        names = ["word-count"] + [f"word-count-{i}" for i in range(2, 9)]
        assert len({ring.shard_for(n) for n in names}) >= 3


class TestRebalance:
    def test_growth_moves_keys_only_to_the_new_shard(self):
        before = HashRing([0, 1, 2])
        after = HashRing([0, 1, 2, 3])
        moved = 0
        for key in KEYS:
            old, new = before.shard_for(key), after.shard_for(key)
            if old != new:
                assert new == 3, (
                    f"{key} moved {old}->{new}, not to the added shard"
                )
                moved += 1
        # Roughly 1/4 of the keyspace should land on the newcomer.
        assert 0 < moved < len(KEYS) / 2

    def test_shrink_moves_only_the_removed_shards_keys(self):
        before = HashRing([0, 1, 2, 3])
        after = HashRing([0, 1, 2])
        for key in KEYS:
            old, new = before.shard_for(key), after.shard_for(key)
            if old != 3:
                assert new == old, (
                    f"{key} moved {old}->{new} though its owner survived"
                )
