"""ServingLayer: content-addressed keys, invalidation, warm precompute."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heron.tracker import TopologyTracker
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.serving.fingerprint import RequestDescriptor, fingerprint
from repro.serving.layer import ServingLayer
from repro.timeseries.store import MetricsStore
from tests.clock import ManualClock
from tests.live import poll_until


def make_layer(**kwargs):
    tracker, store = TopologyTracker(), MetricsStore()
    layer = ServingLayer(tracker, store, **kwargs)
    return layer, tracker, store


def desc(topology="wc", horizon=60):
    return RequestDescriptor.of(
        "traffic", topology, None, {"horizon_minutes": horizon}
    )


class TestFingerprint:
    def test_param_order_does_not_matter(self):
        a = RequestDescriptor.of("traffic", "wc", None, {"a": 1, "b": 2})
        b = RequestDescriptor.of("traffic", "wc", None, {"b": 2, "a": 1})
        assert a == b
        assert a.cache_key(1, 1) == b.cache_key(1, 1)

    def test_every_field_changes_the_key(self):
        base = desc().cache_key(1, 1)
        assert desc(horizon=61).cache_key(1, 1) != base
        assert desc(topology="other").cache_key(1, 1) != base
        assert desc().cache_key(2, 1) != base  # plan revision
        assert desc().cache_key(1, 2) != base  # metrics digest
        named = RequestDescriptor.of(
            "traffic", "wc", "prophet", {"horizon_minutes": 60}
        )
        assert named.cache_key(1, 1) != base

    def test_fingerprint_is_stable(self):
        fields = {"kind": "traffic", "topology": "wc"}
        assert fingerprint(fields) == fingerprint(dict(fields))


class TestContentAddressing:
    def test_unchanged_inputs_hit_the_cache(self):
        layer, _, _ = make_layer()
        calls = []
        compute = lambda: calls.append(1) or {"value": 7}  # noqa: E731
        first = layer.execute(desc(), compute)
        second = layer.execute(desc(), compute)
        assert first == second == {"value": 7}
        assert len(calls) == 1
        assert layer.stats()["hit_rate"] == 0.5
        layer.close()

    def test_cached_payload_is_byte_identical(self):
        layer, _, _ = make_layer()
        result = {"nested": {"b": 2.5, "a": [1, 2]}, "rate": 1e7 / 3}
        first = layer.execute(desc(), lambda: result)
        second = layer.execute(desc(), lambda: dict(result))
        assert json.dumps(first) == json.dumps(second)
        layer.close()

    @settings(max_examples=150, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=8)
            | st.floats(allow_nan=True, allow_infinity=True),
            lambda leaf: st.lists(leaf, max_size=3)
            | st.dictionaries(st.text(max_size=5), leaf, max_size=3)
            # Keys that only become text on the way out.  (A dict holding
            # both 1 and "1" would lose one of them to the round trip; no
            # model builds such a result.)
            | st.dictionaries(st.integers(0, 50) | st.booleans(), leaf, max_size=3),
            max_leaves=12,
        ).map(lambda value: {"result": value, "ünïcode": "höhe ≥ 3 \U0001f600"})
    )
    def test_a_stored_payload_survives_decode_and_encode_unchanged(self, result):
        """What the listener sends for a hit (the stored bytes) and what
        it encodes from ``execute``'s dict are one and the same."""
        layer, _, _ = make_layer()
        try:
            document = layer.execute(desc(), lambda: result)
            stored = layer.cached(desc())
            assert stored is not None
            assert json.dumps(json.loads(stored)).encode("utf8") == stored
            assert json.dumps(document).encode("utf8") == stored
        finally:
            layer.close()

    def test_cached_books_a_hit_once_and_a_miss_not_at_all(self):
        layer, _, _ = make_layer()
        assert layer.cached(desc()) is None
        assert layer.cached(desc()) is None
        stats = layer.stats()
        assert (stats["requests"], stats["hits"]) == (0, 0)
        assert (stats["cache"]["misses"], stats["precompute"]["recorded"]) == (0, 0)
        layer.execute(desc(), lambda: {"value": 7})
        assert layer.cached(desc()) == b'{"value": 7}'
        stats = layer.stats()
        assert (stats["requests"], stats["hits"]) == (2, 1)
        # execute's own two looks, and nothing from the three attempts.
        assert (stats["cache"]["misses"], stats["cache"]["hits"]) == (2, 1)
        assert stats["precompute"]["recorded"] == 2
        layer.close()

    def test_metrics_write_invalidates(self):
        layer, _, store = make_layer()
        values = iter([1, 2])
        compute = lambda: {"value": next(values)}  # noqa: E731
        assert layer.execute(desc(), compute) == {"value": 1}
        store.write("m", 0, 1.0, {"topology": "wc"})
        assert layer.execute(desc(), compute) == {"value": 2}
        assert layer.stats()["cache"]["invalidations"] >= 1
        layer.close()

    def test_write_to_other_topology_does_not_invalidate(self):
        layer, _, store = make_layer()
        calls = []
        compute = lambda: calls.append(1) or {"value": 1}  # noqa: E731
        layer.execute(desc(), compute)
        store.write("m", 0, 1.0, {"topology": "unrelated"})
        layer.execute(desc(), compute)
        assert len(calls) == 1
        layer.close()

    def test_untagged_write_invalidates_everything(self):
        layer, _, store = make_layer()
        calls = []
        compute = lambda: calls.append(1) or {"value": 1}  # noqa: E731
        layer.execute(desc(), compute)
        store.write("m", 0, 1.0)  # no topology tag: conservative
        layer.execute(desc(), compute)
        assert len(calls) == 2
        layer.close()

    def test_plan_update_invalidates(self):
        layer, tracker, _ = make_layer()
        topology, packing, _ = build_word_count(WordCountParams())
        tracker.register(topology, packing)
        calls = []
        compute = lambda: calls.append(1) or {"value": 1}  # noqa: E731
        layer.execute(desc(topology.name), compute)
        tracker.update(topology.name, topology, packing)
        layer.execute(desc(topology.name), compute)
        assert len(calls) == 2
        layer.close()


class TestWarmPrecompute:
    def test_popular_query_is_rewarmed_after_invalidation(self):
        layer, _, store = make_layer()
        computes = []

        def recompute(descriptor):
            computes.append(descriptor)
            return {"topology": descriptor.topology, "warm": True}

        layer.set_recompute(recompute)
        # Make the query popular through the interactive path.
        layer.execute(desc(), lambda: {"topology": "wc", "warm": False})
        layer.execute(desc(), lambda: {"topology": "wc", "warm": False})
        store.write("m", 0, 1.0, {"topology": "wc"})
        assert layer.precompute_now() == 1
        assert computes[0] == desc()
        # The interactive path now hits the warm entry without computing.
        hits_before = layer.stats()["hits"]
        result = layer.execute(
            desc(), lambda: {"topology": "wc", "warm": False}
        )
        assert result["warm"] is True
        assert layer.stats()["hits"] == hits_before + 1
        layer.close()

    def test_precompute_failure_is_counted_not_raised(self):
        layer, _, store = make_layer()

        def failing(descriptor):
            from repro.errors import ModelError

            raise ModelError("cannot recompute")

        layer.set_recompute(failing)
        layer.execute(desc(), lambda: {"v": 1})
        store.write("m", 0, 1.0, {"topology": "wc"})
        assert layer.precompute_now() == 0
        assert layer.stats()["precompute_failures"] == 1
        layer.close()

    def test_background_loop_rewarms(self):
        """The loop waits on the layer's clock for a write, not for its
        interval: with the clock standing still, the write alone wakes it."""
        clock = ManualClock()
        layer, _, store = make_layer(clock=clock)
        layer.set_recompute(lambda d: {"warm": True})
        layer.execute(desc(), lambda: {"warm": False})
        layer.start(interval_seconds=0.05)
        assert clock.await_waiters(1)
        store.write("m", 0, 1.0, {"topology": "wc"})
        assert poll_until(lambda: layer.stats()["precomputed"] == 1, 10)
        assert layer.execute(desc(), lambda: {"warm": False}) == {"warm": True}
        layer.close()


class TestStats:
    def test_stats_shape(self):
        layer, _, _ = make_layer()
        layer.execute(desc(), lambda: {"v": 1})
        stats = layer.stats()
        assert stats["enabled"] is True
        assert stats["requests"] == 1
        assert stats["computations"] == 1
        assert 0.0 <= stats["hit_rate"] <= 1.0
        for section in ("cache", "scheduler", "singleflight", "precompute"):
            assert isinstance(stats[section], dict)
        layer.close()

    def test_close_unsubscribes(self):
        layer, tracker, store = make_layer()
        layer.close()
        # Writes after close must not touch the (closed) layer.
        store.write("m", 0, 1.0, {"topology": "wc"})
        topology, packing, _ = build_word_count(WordCountParams())
        tracker.register(topology, packing)
        assert layer.stats()["cache"]["invalidations"] == 0
