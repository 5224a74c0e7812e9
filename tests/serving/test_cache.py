"""ResultCache: LRU byte bound, TTL expiry, topology invalidation, and
pending entries: one computation per key, shared by its waiters."""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro.durability.deadline import DeadlineExceeded
from repro.errors import ConfigError
from repro.serving.cache import Pending, ResultCache
from tests.clock import Call, ManualClock
from tests.live import poll_until
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


def lead(cache: ResultCache, key: str, topology: str = "wc") -> Pending:
    """Ask for ``key`` as the layer does; the ask must lead."""
    mine = Pending(topology)
    assert cache.get(key, lead=mine) is mine
    return mine


class TestPending:
    def test_a_miss_leads_and_the_next_ask_waits(self, clock):
        cache = ResultCache(1024, clock=clock)
        first = lead(cache, "k")
        assert cache.get("k", lead=Pending("wc")) is first
        assert cache.get("k", count_miss=False) is None
        assert cache.get("k") is first  # a counted lookup finds it too
        assert reading(cache, "serving.singleflight.led") == 1
        assert reading(cache, "serving.singleflight.coalesced") == 2
        assert reading(cache, "serving.cache.entries") == 1
        assert reading(cache, "serving.cache.bytes") == 0

    def test_seven_waiters_share_the_leaders_answer(self, clock):
        cache = ResultCache(1024, clock=clock)
        first = lead(cache, "k")

        def ask():
            answer = cache.get("k", lead=Pending("wc"))
            assert answer is first
            return cache.join(answer, None)

        waiters = [Call(ask) for _ in range(7)]
        assert poll_until(
            lambda: reading(cache, "serving.singleflight.coalesced") == 7
        )
        assert cache.put("k", b"answer", "wc", first)
        assert [w.result() for w in waiters] == [b"answer"] * 7
        assert cache.get("k") == b"answer"
        assert reading(cache, "serving.singleflight.led") == 1

    def test_distinct_keys_do_not_coalesce(self, clock):
        cache = ResultCache(1024, clock=clock)
        a, b = lead(cache, "a"), lead(cache, "b")
        assert a is not b
        assert reading(cache, "serving.singleflight.led") == 2
        assert reading(cache, "serving.singleflight.coalesced") == 0

    def test_the_leaders_error_reaches_every_waiter_and_stores_nothing(self, clock):
        cache = ResultCache(1024, clock=clock)
        first = lead(cache, "k")
        waiters = [
            Call(lambda: cache.join(cache.get("k", lead=Pending("wc")), None))
            for _ in range(3)
        ]
        assert poll_until(
            lambda: reading(cache, "serving.singleflight.coalesced") == 3
        )
        cache.fail("k", first, ValueError("boom"))
        for waiter in waiters:
            with pytest.raises(ValueError, match="boom"):
                waiter.result()
        assert reading(cache, "serving.cache.entries") == 0
        lead(cache, "k")  # a later ask computes anew

    def test_a_resolved_key_is_asked_again_as_a_hit(self, clock):
        cache = ResultCache(1024, clock=clock)
        cache.put("k", b"1", "wc", lead(cache, "k"))
        assert cache.get("k", lead=Pending("wc")) == b"1"
        cache.invalidate_topology("wc")
        cache.put("k", b"2", "wc", lead(cache, "k"))  # a later ask re-runs
        assert cache.get("k") == b"2"

    def test_a_waiter_gives_up_at_its_own_deadline(self, clock):
        cache = ResultCache(1024, clock=clock)
        first = lead(cache, "k")
        impatient = Call(cache.join, first, 2.0)
        patient = Call(cache.join, first, None)
        assert clock.await_waiters(1)
        clock.advance(2.0)
        with pytest.raises(DeadlineExceeded) as raised:
            impatient.result()
        assert raised.value.status == 504
        cache.put("k", b"late", "wc", first)
        assert patient.result() == b"late"
        assert cache.get("k") == b"late"

    def test_pending_entries_hold_no_bytes_and_outlive_pressure_and_ttl(self, clock):
        cache = ResultCache(20, ttl_seconds=10, clock=clock)
        first = lead(cache, "slow")
        for index in range(5):
            cache.put(f"k{index}", b"x" * 10, "wc")  # the last three evict
        assert reading(cache, "serving.cache.evictions") == 3
        clock.advance(60)
        cache.put("fresh", b"y" * 20, "wc")  # sweeps k3 and k4
        assert reading(cache, "serving.cache.expirations") == 2
        assert reading(cache, "serving.cache.bytes") == 20
        assert cache.get("slow") is first
        assert cache.put("slow", b"z" * 5, "wc", first)  # evicts "fresh"
        assert reading(cache, "serving.cache.evictions") == 4
        assert cache.get("slow") == b"z" * 5

    @pytest.mark.parametrize("topology", ["wc", None])
    def test_an_invalidated_answer_reaches_its_waiters_but_is_not_stored(
        self, clock, topology
    ):
        cache = ResultCache(1024, clock=clock)
        first = lead(cache, "k")
        other = lead(cache, "o", topology="other")
        waiter = Call(lambda: cache.join(cache.get("k", lead=Pending("wc")), None))
        assert poll_until(
            lambda: reading(cache, "serving.singleflight.coalesced") == 1
        )
        assert cache.invalidate_topology(topology) == (1 if topology else 2)
        assert cache.get("k", lead=Pending("wc")) is not first  # a new leader
        assert not cache.put("k", b"old", "wc", first)
        assert waiter.result() == b"old"
        assert cache.get("k", count_miss=False) is None
        assert (cache.get("o") is other) == (topology is not None)

    def test_only_its_leader_resolves_a_pending_entry(self, clock):
        cache = ResultCache(1024, clock=clock)
        first = lead(cache, "k")
        assert not cache.put("k", b"stray", "wc")
        assert cache.get("k") is first
        assert not first.done.is_set()
        assert cache.put("k", b"answer", "wc", first)
        assert cache.get("k") == b"answer"

    def test_an_oversized_answer_still_reaches_its_waiters(self, clock):
        cache = ResultCache(4, clock=clock)
        first = lead(cache, "k")
        assert not cache.put("k", b"too large", "wc", first)
        assert cache.join(first, None) == b"too large"
        assert reading(cache, "serving.cache.entries") == 0
