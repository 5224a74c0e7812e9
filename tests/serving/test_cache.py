"""ResultCache: LRU byte bound, TTL expiry, topology invalidation."""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro.errors import ConfigError
from repro.serving.cache import ResultCache
from tests.clock import ManualClock
from tests.readings import reading


@pytest.fixture()
def clock() -> ManualClock:
    return ManualClock()


class TestLru:
    def test_hit_returns_exact_payload(self, clock):
        cache = ResultCache(1024, clock=clock)
        assert cache.put("k", b"payload", "wc")
        assert cache.get("k") == b"payload"
        assert reading(cache, "serving.cache.hits") == 1

    def test_miss_counts(self, clock):
        cache = ResultCache(1024, clock=clock)
        assert cache.get("absent") is None
        assert reading(cache, "serving.cache.misses") == 1

    def test_byte_bound_evicts_least_recently_used(self, clock):
        cache = ResultCache(30, clock=clock)
        cache.put("a", b"x" * 10, "wc")
        cache.put("b", b"y" * 10, "wc")
        cache.put("c", b"z" * 10, "wc")
        cache.get("a")  # a is now most recently used
        cache.put("d", b"w" * 10, "wc")  # evicts b, the coldest
        assert cache.get("a") is not None
        assert cache.get("b") is None
        assert cache.get("c") is not None
        assert reading(cache, "serving.cache.evictions") == 1

    def test_oversized_payload_not_cached(self, clock):
        cache = ResultCache(10, clock=clock)
        assert not cache.put("big", b"x" * 11, "wc")
        assert reading(cache, "serving.cache.entries") == 0

    def test_replacing_a_key_updates_accounting(self, clock):
        cache = ResultCache(100, clock=clock)
        cache.put("k", b"x" * 60, "wc")
        cache.put("k", b"y" * 10, "wc")
        assert reading(cache, "serving.cache.bytes") == 10
        assert cache.get("k") == b"y" * 10

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ConfigError):
            ResultCache(0)


class _CountingEntries(OrderedDict):
    """Counts the entries a scan of the table hands out."""

    visited = 0

    def _counted(self, iterator):
        for item in iterator:
            self.visited += 1
            yield item

    def __iter__(self):
        return self._counted(super().__iter__())

    def items(self):
        return self._counted(super().items())

    def values(self):
        return self._counted(super().values())


class TestTtl:
    def test_entry_expires(self, clock):
        cache = ResultCache(1024, ttl_seconds=10, clock=clock)
        cache.put("k", b"v", "wc")
        clock.advance(9)
        assert cache.get("k") == b"v"
        clock.advance(2)
        assert cache.get("k") is None
        assert reading(cache, "serving.cache.expirations") == 1

    def test_expired_entries_swept_on_write(self, clock):
        """...when the write needs room: the dead go before the living."""
        cache = ResultCache(2, ttl_seconds=10, clock=clock)
        cache.put("old", b"v", "wc")
        clock.advance(6)
        cache.put("live", b"v", "wc")
        assert cache.get("old") == b"v"  # the LRU's next victim is "live"
        clock.advance(5)  # "old" is past its ttl, "live" is not
        assert cache.get("old", count_miss=False) is None  # dead, not yet swept
        assert reading(cache, "serving.cache.entries") == 2
        cache.put("new", b"v", "wc")
        assert reading(cache, "serving.cache.expirations") == 1
        assert reading(cache, "serving.cache.evictions") == 0
        assert reading(cache, "serving.cache.bytes") == 2
        assert cache.get("live") == b"v" and cache.get("new") == b"v"

    def test_a_put_with_room_visits_no_other_entry(self, clock):
        """The sweep walked the whole table under the lock on every
        insert: 1.2 ms at 20k entries, stalling every concurrent get."""
        cache = ResultCache(1 << 20, ttl_seconds=10, clock=clock)
        for index in range(500):
            cache.put(f"k{index}", b"v", "wc")
        cache._entries = entries = _CountingEntries(cache._entries)
        cache.put("one-more", b"v", "wc")
        cache.put("k7", b"w", "wc")  # a replacement, too
        assert entries.visited == 0
        assert cache.get("one-more") == b"v"
        assert reading(cache, "serving.cache.entries") == 501

    def test_none_ttl_never_expires(self, clock):
        cache = ResultCache(1024, ttl_seconds=None, clock=clock)
        cache.put("k", b"v", "wc")
        clock.advance(1e9)
        assert cache.get("k") == b"v"


class TestInvalidation:
    def test_topology_invalidation_drops_only_that_topology(self, clock):
        cache = ResultCache(1024, clock=clock)
        cache.put("a", b"1", "wc")
        cache.put("b", b"2", "wc")
        cache.put("c", b"3", "other")
        assert cache.invalidate_topology("wc") == 2
        assert cache.get("a") is None
        assert cache.get("c") == b"3"
        assert reading(cache, "serving.cache.invalidations") == 2

    def test_invalidate_all(self, clock):
        cache = ResultCache(1024, clock=clock)
        cache.put("a", b"1", "wc")
        cache.put("b", b"2", "other")
        assert cache.invalidate_topology(None) == 2
        assert reading(cache, "serving.cache.entries") == 0
        assert reading(cache, "serving.cache.bytes") == 0

    def test_invalidate_unknown_topology_is_noop(self, clock):
        cache = ResultCache(1024, clock=clock)
        cache.put("a", b"1", "wc")
        assert cache.invalidate_topology("nope") == 0
        assert cache.get("a") == b"1"
