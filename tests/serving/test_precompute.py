"""WarmCachePrecomputer: popularity tracking and invalidation queueing."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serving.fingerprint import RequestDescriptor
from repro.serving.precompute import WarmCachePrecomputer


def desc(topology: str, horizon: int) -> RequestDescriptor:
    return RequestDescriptor.of(
        "traffic", topology, None, {"horizon_minutes": horizon}
    )


class TestPopularity:
    def test_invalidation_queues_most_popular_first(self):
        pre = WarmCachePrecomputer(top_k=2)
        hot, warm, cold = desc("wc", 60), desc("wc", 30), desc("wc", 10)
        for _ in range(5):
            pre.record(hot)
        for _ in range(3):
            pre.record(warm)
        pre.record(cold)
        assert pre.invalidate("wc") == 2
        assert set(pre.take_pending()) == {hot, warm}

    def test_invalidation_is_per_topology(self):
        pre = WarmCachePrecomputer(top_k=4)
        pre.record(desc("wc", 60))
        pre.record(desc("other", 60))
        assert pre.invalidate("wc") == 1
        assert [d.topology for d in pre.take_pending()] == ["wc"]

    def test_invalidate_none_matches_all(self):
        pre = WarmCachePrecomputer(top_k=4)
        pre.record(desc("wc", 60))
        pre.record(desc("other", 60))
        assert pre.invalidate(None) == 2

    def test_pending_is_deduplicated(self):
        pre = WarmCachePrecomputer(top_k=4)
        pre.record(desc("wc", 60))
        pre.invalidate("wc")
        pre.invalidate("wc")
        assert pre.stats()["pending"] == 1

    def test_take_pending_drains(self):
        pre = WarmCachePrecomputer(top_k=4)
        pre.record(desc("wc", 60))
        pre.invalidate("wc")
        assert len(pre.take_pending()) == 1
        assert pre.take_pending() == []

    def test_tracking_table_is_bounded(self):
        pre = WarmCachePrecomputer(top_k=2, max_tracked=4)
        for horizon in range(1, 10):
            pre.record(desc("wc", horizon))
        assert pre.stats()["tracked"] <= 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            WarmCachePrecomputer(top_k=0)
        with pytest.raises(ConfigError):
            WarmCachePrecomputer(top_k=4, max_tracked=2)
