"""ServingLayer: version-keyed answers, invalidation, warm precompute."""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.deadline import DeadlineExceeded
from repro.heron.tracker import TopologyTracker
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.serving.fingerprint import RequestDescriptor, fingerprint
from repro.serving.layer import ServingLayer
from repro.timeseries.store import MetricsStore
from tests.clock import JOIN, Call, ManualClock
from tests.live import poll_until
from tests.readings import reading


def make_layer(answer=lambda descriptor: {"value": 7}, **kwargs):
    """A layer whose answer function is ``answer``."""
    tracker, store = TopologyTracker(), MetricsStore()
    layer = ServingLayer(tracker, store, answer, **kwargs)
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
        calls = []
        layer, _, _ = make_layer(lambda d: calls.append(d) or {"value": 7})
        first = layer.execute(desc())
        second = layer.execute(desc())
        assert first == second == {"value": 7}
        assert len(calls) == 1
        assert layer.stats()["hit_rate"] == 0.5
        layer.close()

    def test_cached_payload_is_byte_identical(self):
        result = {"nested": {"b": 2.5, "a": [1, 2]}, "rate": 1e7 / 3}
        layer, _, _ = make_layer(lambda d: dict(result))
        first = layer.execute(desc())
        second = layer.execute(desc())
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
        layer, _, _ = make_layer(lambda d: result)
        try:
            document = layer.execute(desc())
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
        layer.execute(desc())
        assert layer.cached(desc()) == b'{"value": 7}'
        stats = layer.stats()
        assert (stats["requests"], stats["hits"]) == (2, 1)
        # execute's one look, and nothing from the three attempts.
        assert (stats["cache"]["misses"], stats["cache"]["hits"]) == (1, 1)
        assert stats["precompute"]["recorded"] == 2
        layer.close()

    def test_metrics_write_invalidates(self):
        values = iter([1, 2])
        layer, _, store = make_layer(lambda d: {"value": next(values)})
        assert layer.execute(desc()) == {"value": 1}
        store.write("m", 0, 1.0, {"topology": "wc"})
        assert layer.execute(desc()) == {"value": 2}
        assert layer.stats()["cache"]["invalidations"] >= 1
        layer.close()

    def test_write_to_other_topology_does_not_invalidate(self):
        calls = []
        layer, _, store = make_layer(lambda d: calls.append(d) or {"value": 1})
        layer.execute(desc())
        store.write("m", 0, 1.0, {"topology": "unrelated"})
        layer.execute(desc())
        assert len(calls) == 1
        layer.close()

    def test_untagged_write_invalidates_everything(self):
        calls = []
        layer, _, store = make_layer(lambda d: calls.append(d) or {"value": 1})
        layer.execute(desc())
        store.write("m", 0, 1.0)  # no topology tag: conservative
        layer.execute(desc())
        assert len(calls) == 2
        layer.close()

    def test_plan_update_invalidates(self):
        calls = []
        layer, tracker, _ = make_layer(lambda d: calls.append(d) or {"value": 1})
        topology, packing, _ = build_word_count(WordCountParams())
        tracker.register(topology, packing)
        layer.execute(desc(topology.name))
        tracker.update(topology.name, topology, packing)
        layer.execute(desc(topology.name))
        assert len(calls) == 2
        layer.close()


class Blocking:
    """An answer function that runs until released, counting its runs."""

    def __init__(self, answer=None) -> None:
        self.answer = {"value": 1} if answer is None else answer
        self.runs = 0
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, descriptor):
        self.runs += 1
        self.started.set()
        assert self.release.wait(JOIN)
        if isinstance(self.answer, Exception):
            raise self.answer
        return self.answer


def coalesced(layer) -> int:
    return reading(layer, "serving.singleflight.coalesced")


class TestOneComputationPerKey:
    def test_seven_concurrent_askers_share_one_computation(self):
        model = Blocking()
        layer, _, _ = make_layer(model)
        leader = Call(layer.execute, desc())
        assert model.started.wait(JOIN)
        waiters = [Call(layer.execute, desc()) for _ in range(7)]
        assert poll_until(lambda: coalesced(layer) == 7)
        model.release.set()
        assert [c.result() for c in [leader, *waiters]] == [{"value": 1}] * 8
        assert model.runs == 1
        stats = layer.stats()
        assert (stats["computations"], stats["coalesced"]) == (1, 7)
        assert stats["singleflight"] == {"led": 1, "coalesced": 7}
        assert stats["cache"]["misses"] == 8  # one look each
        layer.close()

    def test_distinct_keys_compute_side_by_side(self):
        both = threading.Barrier(2, timeout=JOIN)

        def model(descriptor):
            both.wait()  # neither waits for the other's answer
            return {"tag": json.loads(descriptor.params)["horizon_minutes"]}

        layer, _, _ = make_layer(model)
        a = Call(layer.execute, desc(horizon=1))
        b = Call(layer.execute, desc(horizon=2))
        assert (a.result(), b.result()) == ({"tag": 1}, {"tag": 2})
        assert coalesced(layer) == 0
        layer.close()

    def test_the_leaders_error_reaches_every_waiter_and_is_not_stored(self):
        from repro.errors import ModelError

        model = Blocking(ModelError("boom"))
        layer, _, _ = make_layer(model)
        leader = Call(layer.execute, desc())
        assert model.started.wait(JOIN)
        waiters = [Call(layer.execute, desc()) for _ in range(3)]
        assert poll_until(lambda: coalesced(layer) == 3)
        model.release.set()
        for call in [leader, *waiters]:
            with pytest.raises(ModelError, match="boom"):
                call.result()
        assert model.runs == 1
        assert layer.stats()["cache"]["entries"] == 0
        model.answer = {"value": 2}
        assert layer.execute(desc()) == {"value": 2}
        assert model.runs == 2
        layer.close()

    def test_a_waiter_gives_up_at_its_own_deadline(self):
        """The waiter's deadline is shorter than the leader's computation:
        504 when it passes, while the leader and a patient waiter go on
        to the answer."""
        clock = ManualClock()
        model = Blocking()
        layer, _, _ = make_layer(model, clock=clock)
        leader = Call(layer.execute, desc())
        assert model.started.wait(JOIN)
        patient = Call(layer.execute, desc())
        impatient = Call(layer.execute, desc(), timeout=1.0)
        assert clock.await_waiters(1)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceeded) as raised:
            impatient.result()
        assert raised.value.status == 504
        model.release.set()
        assert leader.result() == patient.result() == {"value": 1}
        assert model.runs == 1
        layer.close()

    def test_an_answer_invalidated_mid_computation_is_not_stored(self):
        """A write lands while the leader computes: every asker still gets
        the answer, and no entry is left holding budget under a key no
        one can compute any more."""
        model = Blocking()
        layer, _, store = make_layer(model)
        leader = Call(layer.execute, desc())
        assert model.started.wait(JOIN)
        waiters = [Call(layer.execute, desc()) for _ in range(2)]
        assert poll_until(lambda: coalesced(layer) == 2)
        store.write("m", 0, 1.0, {"topology": "wc"})
        model.release.set()
        assert [c.result() for c in [leader, *waiters]] == [{"value": 1}] * 3
        cache = layer.stats()["cache"]
        assert (cache["bytes"], cache["entries"]) == (0, 0)
        layer.close()


class Counted:
    """An answer function numbering the answers it computes."""

    def __init__(self) -> None:
        self.asked: list[RequestDescriptor] = []

    def __call__(self, descriptor):
        self.asked.append(descriptor)
        return {"topology": descriptor.topology, "computed": len(self.asked)}


class TestWarmPrecompute:
    def test_popular_query_is_rewarmed_after_invalidation(self):
        model = Counted()
        layer, _, store = make_layer(model)
        # Make the query popular through the interactive path.
        layer.execute(desc())
        layer.execute(desc())
        store.write("m", 0, 1.0, {"topology": "wc"})
        assert layer.precompute_now() == 1
        assert model.asked == [desc(), desc()]
        # The interactive path now hits the warm entry without computing.
        hits_before = layer.stats()["hits"]
        assert layer.execute(desc()) == {"topology": "wc", "computed": 2}
        assert layer.stats()["hits"] == hits_before + 1
        assert len(model.asked) == 2
        layer.close()

    def test_precompute_failure_is_counted_not_raised(self):
        from repro.errors import ModelError

        outcomes = iter([{"v": 1}, ModelError("cannot recompute")])

        def answer(descriptor):
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        layer, _, store = make_layer(answer)
        layer.execute(desc())
        store.write("m", 0, 1.0, {"topology": "wc"})
        assert layer.precompute_now() == 0
        assert layer.stats()["precompute_failures"] == 1
        layer.close()

    def test_background_loop_rewarms(self):
        """The loop waits on the layer's clock for a write, not for its
        interval: with the clock standing still, the write alone wakes it."""
        clock = ManualClock()
        model = Counted()
        layer, _, store = make_layer(model, clock=clock)
        layer.execute(desc())
        layer.start(interval_seconds=0.05)
        assert clock.await_waiters(1)
        store.write("m", 0, 1.0, {"topology": "wc"})
        assert poll_until(lambda: layer.stats()["precomputed"] == 1, 10)
        assert layer.execute(desc()) == {"topology": "wc", "computed": 2}
        layer.close()


class TestStats:
    def test_stats_shape(self):
        layer, _, _ = make_layer()
        layer.execute(desc())
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
