"""WarmCachePrecomputer: popularity tracking and invalidation queueing."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serving.fingerprint import RequestDescriptor
from repro.serving.precompute import WarmCachePrecomputer
from tests.readings import reading


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
        assert reading(pre, "serving.precompute.pending") == 1

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
        assert reading(pre, "serving.precompute.tracked") <= 4

    def test_eviction_takes_the_lowest_count_then_the_least_recent(self):
        """The survivors the whole-table ``min`` used to pick, checked
        against that search over a long random-ish request stream."""
        pre = WarmCachePrecomputer(top_k=2, max_tracked=6)
        reference: dict[RequestDescriptor, tuple[int, int]] = {}
        horizon = 1
        for seq in range(1, 400):
            horizon = (horizon * 37 + seq // 7) % 23  # repeats and strangers
            descriptor = desc("wc", horizon)
            count, _ = reference.get(descriptor, (0, 0))
            reference[descriptor] = (count + 1, seq)
            if len(reference) > 6:
                del reference[min(reference, key=reference.get)]
            pre.record(descriptor)
            assert {
                d: (p.count, p.last_seq) for d, p in pre._popular.items()
            } == reference
            assert set(pre._seen_once) == {
                d for d, (count, _) in reference.items() if count == 1
            }

    def test_recording_a_new_descriptor_visits_no_other(self):
        """Once the table was full every *new* descriptor cost a ``min``
        over all of it, under the lock every request takes."""

        class Counting(dict):
            visited = 0

            def __iter__(self):
                for key in super().__iter__():
                    Counting.visited += 1
                    yield key

        pre = WarmCachePrecomputer(top_k=8)
        for horizon in range(64):
            pre.record(desc("wc", horizon))
        for name, table in list(vars(pre).items()):
            if isinstance(table, dict):
                setattr(pre, name, Counting(table))
        for horizon in range(64, 96):
            pre.record(desc("wc", horizon))
        assert reading(pre, "serving.precompute.tracked") == 64
        assert Counting.visited == 32  # the one evicted each time

    def test_validation(self):
        with pytest.raises(ConfigError):
            WarmCachePrecomputer(top_k=0)
        with pytest.raises(ConfigError):
            WarmCachePrecomputer(top_k=4, max_tracked=2)
