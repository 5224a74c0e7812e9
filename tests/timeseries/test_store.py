"""Tests for the tag-indexed metrics store (the Cuckoo substitute)."""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.errors import MetricsError
from repro.timeseries import store as store_module
from repro.timeseries.store import MetricKey, MetricsStore


@pytest.fixture()
def store() -> MetricsStore:
    s = MetricsStore()
    for minute in range(5):
        ts = minute * 60
        s.write("execute-count", ts, 100.0 + minute, {"component": "a", "instance": "a_0"})
        s.write("execute-count", ts, 200.0 + minute, {"component": "a", "instance": "a_1"})
        s.write("execute-count", ts, 50.0 + minute, {"component": "b", "instance": "b_0"})
    return s


class TestMetricKey:
    def test_of_normalises_tag_order(self):
        a = MetricKey.of("m", {"x": "1", "y": "2"})
        b = MetricKey.of("m", {"y": "2", "x": "1"})
        assert a == b

    def test_matches_partial_filter(self):
        key = MetricKey.of("m", {"component": "a", "instance": "a_0"})
        assert key.matches("m", {"component": "a"})
        assert not key.matches("m", {"component": "b"})
        assert not key.matches("other", {})
        assert not key.matches("m", {"container": "1"})
        assert key.matches("m", {})

    def test_topology_tag_is_an_attribute_outside_identity(self):
        tagged = MetricKey.of("m", {"topology": "wc", "component": "a"})
        assert tagged.topology == "wc"
        assert MetricKey.of("m", {"component": "a"}).topology is None
        assert tagged == MetricKey("m", (("component", "a"), ("topology", "wc")))
        assert hash(tagged) == hash(MetricKey("m", tagged.tags))

    def test_tag_dict(self):
        key = MetricKey.of("m", {"k": "v"})
        assert key.tag_dict() == {"k": "v"}

    def test_hash_is_cached_and_never_pickled(self):
        key = MetricKey.of("m", {"topology": "wc"})
        assert hash(key) == hash(("m", key.tags)) == key._hash
        # String hashes are per process: a key sent to a pool worker must
        # be rebuilt there, not arrive with this process's hash.
        assert key.__reduce__() == (MetricKey, ("m", key.tags))
        clone = pickle.loads(pickle.dumps(key))
        assert clone == key and hash(clone) == hash(key)
        assert clone.topology == "wc"
        assert repr(key) == "MetricKey(name='m', tags=(('topology', 'wc'),))"


class TestKeyOf:
    def test_interns_one_key_per_series_whatever_the_tag_order(self):
        s = MetricsStore()
        a = s.key_of("m", {"x": "1", "y": "2"})
        assert a is s.key_of("m", {"x": "1", "y": "2"})
        assert a == s.key_of("m", {"y": "2", "x": "1"}) == MetricKey.of(
            "m", {"x": "1", "y": "2"}
        )
        assert s.key_of("m") is s.key_of("m", {}) and s.key_of("m").tags == ()

    def test_table_is_bounded_by_live_series_and_dropped_by_clear(self):
        s = MetricsStore()
        for i in range(20_000):  # series named but never written
            s.key_of("m", {"i": str(i)})
        assert len(s._interned) <= store_module._INTERN_SLACK
        s.write("m", 60, 1.0, {"i": "0"})
        assert s._interned
        s.clear()
        assert s._interned == {}


class TestWrite:
    def test_rejects_out_of_order_writes(self, store):
        with pytest.raises(MetricsError, match="increasing"):
            store.write("execute-count", 0, 1.0, {"component": "a", "instance": "a_0"})

    def test_write_many(self):
        s = MetricsStore()
        s.write_many("m", [(0, 1.0), (60, 2.0)])
        assert s.get("m").to_pairs() == [(0, 1.0), (60, 2.0)]

    def test_distinct_tags_are_distinct_series(self, store):
        a0 = store.get("execute-count", {"component": "a", "instance": "a_0"})
        a1 = store.get("execute-count", {"component": "a", "instance": "a_1"})
        assert a0.values[0] == 100.0
        assert a1.values[0] == 200.0


class TestRead:
    def test_get_unknown_raises(self, store):
        with pytest.raises(MetricsError, match="no series"):
            store.get("execute-count", {"component": "zzz"})

    def test_metric_names(self, store):
        assert store.metric_names() == ["execute-count"]

    def test_query_by_partial_tags(self, store):
        matched = store.query("execute-count", {"component": "a"})
        assert len(matched) == 2

    def test_query_with_time_range(self, store):
        matched = store.query(
            "execute-count", {"component": "b"}, start=60, end=180
        )
        (series,) = matched.values()
        assert list(series.timestamps) == [60, 120]

    def test_aggregate_sums_matching_series(self, store):
        total = store.aggregate("execute-count", {"component": "a"})
        assert total.values[0] == 300.0

    def test_aggregate_no_match_raises(self, store):
        with pytest.raises(MetricsError, match="no series match"):
            store.aggregate("execute-count", {"component": "nope"})

    def test_group_by_tag(self, store):
        groups = store.group_by("execute-count", "component")
        assert set(groups) == {"a", "b"}
        assert groups["a"].values[0] == 300.0
        assert groups["b"].values[0] == 50.0

    def test_group_by_missing_tag_raises(self, store):
        with pytest.raises(MetricsError, match="carry tag"):
            store.group_by("execute-count", "nonexistent-tag")

    def test_latest_timestamp(self, store):
        assert store.latest_timestamp() == 240
        assert MetricsStore().latest_timestamp() is None

    def test_len_counts_series(self, store):
        assert len(store) == 3

    def test_clear(self, store):
        store.clear()
        assert len(store) == 0
        assert store.latest_timestamp() is None


class TestRetention:
    def test_old_samples_are_trimmed(self):
        s = MetricsStore(retention_seconds=120)
        for minute in range(5):
            s.write("m", minute * 60, float(minute))
        series = s.get("m")
        assert series.start >= 240 - 120

    def test_retention_must_be_positive(self):
        with pytest.raises(MetricsError):
            MetricsStore(retention_seconds=0)


class TestConcurrency:
    def test_parallel_writers_to_distinct_series(self):
        s = MetricsStore()
        errors: list[Exception] = []

        def writer(tag: str) -> None:
            try:
                for i in range(200):
                    s.write("m", i, float(i), {"writer": tag})
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(str(n),)) for n in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(s) == 8
        total = s.aggregate("m")
        assert total.values[-1] == 8 * 199.0
