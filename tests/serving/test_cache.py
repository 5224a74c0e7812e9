"""ResultCache: LRU byte bound, TTL expiry, topology invalidation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serving.cache import ResultCache


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


class TestLru:
    def test_hit_returns_exact_payload(self, clock):
        cache = ResultCache(1024, clock=clock)
        assert cache.put("k", b"payload", "wc")
        assert cache.get("k") == b"payload"
        assert cache.stats()["hits"] == 1

    def test_miss_counts(self, clock):
        cache = ResultCache(1024, clock=clock)
        assert cache.get("absent") is None
        assert cache.stats()["misses"] == 1

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
        assert cache.stats()["evictions"] == 1

    def test_oversized_payload_not_cached(self, clock):
        cache = ResultCache(10, clock=clock)
        assert not cache.put("big", b"x" * 11, "wc")
        assert len(cache) == 0

    def test_replacing_a_key_updates_accounting(self, clock):
        cache = ResultCache(100, clock=clock)
        cache.put("k", b"x" * 60, "wc")
        cache.put("k", b"y" * 10, "wc")
        assert cache.stats()["bytes"] == 10
        assert cache.get("k") == b"y" * 10

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ConfigError):
            ResultCache(0)


class TestTtl:
    def test_entry_expires(self, clock):
        cache = ResultCache(1024, ttl_seconds=10, clock=clock)
        cache.put("k", b"v", "wc")
        clock.advance(9)
        assert cache.get("k") == b"v"
        clock.advance(2)
        assert cache.get("k") is None
        assert cache.stats()["expirations"] == 1

    def test_expired_entries_swept_on_write(self, clock):
        cache = ResultCache(1024, ttl_seconds=10, clock=clock)
        cache.put("old", b"v", "wc")
        clock.advance(11)
        cache.put("new", b"v", "wc")
        assert len(cache) == 1
        assert cache.stats()["bytes"] == 1

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
        assert cache.stats()["invalidations"] == 2

    def test_invalidate_all(self, clock):
        cache = ResultCache(1024, clock=clock)
        cache.put("a", b"1", "wc")
        cache.put("b", b"2", "other")
        assert cache.invalidate_topology(None) == 2
        assert len(cache) == 0
        assert cache.stats()["bytes"] == 0

    def test_invalidate_unknown_topology_is_noop(self, clock):
        cache = ResultCache(1024, clock=clock)
        cache.put("a", b"1", "wc")
        assert cache.invalidate_topology("nope") == 0
        assert cache.get("a") == b"1"
