"""``apply_sample_batch``: batched keyed writes, sequential semantics.

The batched ingest path funnels many ``(key, ts, value)`` samples
through one lock acquisition; these tests pin that the end state is
indistinguishable from issuing the same writes sequentially — same
series contents, same per-topology ``data_version`` deltas, same
rejections, same retention cutoff — with only the invalidation
listeners coalesced.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import DurableMetricsStore, store_content_hash
from repro.errors import MetricsError
from repro.timeseries.store import MetricKey, MetricsStore


def _entries(spec):
    return [
        (MetricKey.of(name, tags), ts, value)
        for name, tags, ts, value in spec
    ]


def _mirror_sequential(spec):
    """Apply the same spec through plain write(), collecting errors."""
    store = MetricsStore()
    errors = []
    for name, tags, ts, value in spec:
        try:
            store.write(name, ts, value, tags)
        except Exception as exc:  # MetricsError
            errors.append(str(exc))
        else:
            errors.append(None)
    return store, errors


def _dump(store):
    return {
        (key.name, key.tags): (
            list(store.get(key.name, dict(key.tags)).timestamps),
            list(store.get(key.name, dict(key.tags)).values),
        )
        for key in store.keys()
    }


class TestSequentialEquivalence:
    SPEC = [
        ("arrivals", {"topology": "wc"}, 60, 1.0),
        ("arrivals", {"topology": "wc"}, 120, 2.0),
        ("latency", {"topology": "wc"}, 60, 9.0),
        ("arrivals", {"topology": "other"}, 60, 5.0),
        ("arrivals", None, 60, 7.0),
        ("arrivals", {"topology": "wc"}, 180, 3.0),
    ]

    def test_state_matches_sequential_writes(self):
        batched = MetricsStore()
        errors = batched.apply_sample_batch(_entries(self.SPEC))
        sequential, _ = _mirror_sequential(self.SPEC)
        assert errors == [None] * len(self.SPEC)
        assert _dump(batched) == _dump(sequential)
        for topology in ("wc", "other", None):
            assert batched.data_version(topology) == (
                sequential.data_version(topology)
            )

    def test_out_of_order_entries_reject_without_poisoning(self):
        spec = [
            ("m", {"topology": "t"}, 120, 1.0),
            ("m", {"topology": "t"}, 60, 2.0),   # stale: rejected
            ("m", {"topology": "t"}, 120, 3.0),  # duplicate ts: rejected
            ("m", {"topology": "t"}, 180, 4.0),  # later sample still lands
        ]
        store = MetricsStore()
        errors = store.apply_sample_batch(_entries(spec))
        assert errors[0] is None and errors[3] is None
        assert "increasing timestamp order" in errors[1]
        assert "increasing timestamp order" in errors[2]
        series = store.get("m", {"topology": "t"})
        assert list(series.timestamps) == [120, 180]
        assert list(series.values) == [1.0, 4.0]
        # Version counts accepted writes only, exactly like sequential.
        assert store.data_version("t") == 2

    def test_rejection_checks_the_existing_series_tail(self):
        store = MetricsStore()
        store.write("m", 300, 1.0, {"topology": "t"})
        errors = store.apply_sample_batch(
            _entries([("m", {"topology": "t"}, 240, 2.0)])
        )
        assert "got 240 after 300" in errors[0]

    def test_group_reuse_never_reorders_one_series(self):
        # Pathological shape: X@7 arrives after X@5, but a (ts=7) group
        # already exists from Y@7.  Joining it would replay X as
        # [7, 5] — the batch must open a NEW ts=7 group instead.
        spec = [
            ("y", {"topology": "t"}, 7, 1.0),
            ("x", {"topology": "t"}, 5, 2.0),
            ("x", {"topology": "t"}, 7, 3.0),
        ]
        store = MetricsStore()
        errors = store.apply_sample_batch(_entries(spec))
        assert errors == [None, None, None]
        assert list(store.get("x", {"topology": "t"}).timestamps) == [5, 7]
        assert list(store.get("y", {"topology": "t"}).timestamps) == [7]

    def test_retention_trims_like_sequential_writes(self):
        spec = [
            ("m", {"topology": "t"}, 60, 1.0),
            ("m", {"topology": "t"}, 7200, 2.0),
        ]
        batched = MetricsStore(retention_seconds=3600)
        batched.apply_sample_batch(_entries(spec))
        sequential = MetricsStore(retention_seconds=3600)
        for name, tags, ts, value in spec:
            sequential.write(name, ts, value, tags)
        assert _dump(batched) == _dump(sequential)
        assert list(batched.get("m", {"topology": "t"}).timestamps) == [7200]


class TestInconvertibleSamples:
    """Each sample is converted before its series is touched: one that
    ``int()`` or ``float()`` refuses is a per-entry error like an
    out-of-order one — never a raw exception, nor a series whose
    timestamps and values differ in length."""

    @pytest.mark.parametrize(
        "timestamp, value",
        [(60, "abc"), (60, None), (float("inf"), 1.0), (float("nan"), 1.0),
         ("x", 1.0), (60, 10**400)],
        ids=["str-value", "none-value", "inf-ts", "nan-ts", "str-ts", "huge-value"],
    )
    def test_write_raises_and_leaves_no_series(self, timestamp, value):
        store = MetricsStore()
        with pytest.raises(MetricsError, match="finite timestamp and a numeric"):
            store.write("m", timestamp, value)
        assert len(store) == 0 and store.data_version() == 0

    def test_the_good_samples_of_a_batch_land_and_are_announced(self):
        store = MetricsStore()
        calls: list[str | None] = []
        store.add_invalidation_listener(calls.append)
        with pytest.raises(MetricsError, match="got inf, 2.0"):
            store.write_many(
                "m", [(60, 1.0), (1e400, 2.0), (120, "abc")], {"topology": "t"}
            )
        buffer = store._series[store.key_of("m", {"topology": "t"})]
        assert (buffer.timestamps, buffer.values) == ([60], [1.0])
        assert store.data_version("t") == 1 and calls == ["t"]


class TestListeners:
    def test_listeners_coalesce_to_one_call_per_topology(self):
        store = MetricsStore()
        calls: list[str | None] = []
        store.add_invalidation_listener(calls.append)
        store.apply_sample_batch(
            _entries(
                [
                    ("a", {"topology": "wc"}, 60, 1.0),
                    ("b", {"topology": "wc"}, 60, 2.0),
                    ("a", {"topology": "other"}, 60, 3.0),
                    ("c", None, 60, 4.0),
                ]
            )
        )
        assert calls == ["wc", "other", None]

    def test_all_rejected_batch_fires_no_listeners(self):
        store = MetricsStore()
        store.write("m", 120, 1.0, {"topology": "t"})
        calls: list[str | None] = []
        store.add_invalidation_listener(calls.append)
        store.apply_sample_batch(_entries([("m", {"topology": "t"}, 60, 2.0)]))
        assert calls == []


class TestBatchedAppendGuard:
    """What the removed ``supports_batched_appends`` guard stood in for
    is now a property of the batch paths themselves (journaling of
    batches is pinned in ``tests/durability/test_simulated_feed.py``)."""

    def test_prepared_append_notifies_listeners_once(self):
        store = MetricsStore()
        keys = [MetricKey.of("m", {"topology": "t", "i": str(i)}) for i in range(3)]
        store.apply_sample_batch([(key, 60, 0.0) for key in keys])
        calls: list[str | None] = []
        store.add_invalidation_listener(calls.append)
        batch = store.make_minute_batch(keys)
        store.append_minute_batch(batch, 120, [1.0, 2.0, 3.0], topology="t")
        assert calls == ["t"]
        assert store.data_version("t") == 6

    def test_empty_batch_is_a_no_op(self):
        store = MetricsStore()
        assert store.apply_sample_batch([]) == []
        assert store.data_version() == 0


# ----------------------------------------------------------------------
# Property: a batch is the sequence of writes it stands for
# ----------------------------------------------------------------------
_KEYS = [
    MetricKey.of(name, tags)
    for name in ("a", "b")
    for tags in (
        None,
        {"topology": "t1"},
        {"topology": "t1", "instance": "1"},
        {"topology": "t2"},
    )
]
#: Timestamps and values a writer may hand over that are not clean
#: numbers: ``int()``/``float()`` refuse some (a per-entry error), convert
#: others (``30.5`` is ``30``, ``"1.5"`` is ``1.5``), and a non-finite
#: value is stored.
_ODD_TIMESTAMPS = [float("inf"), float("nan"), "x", None, 30.5]
_ODD_VALUES = [float("nan"), float("-inf"), "abc", None, "1.5", 10**400]
_ENTRY = st.tuples(
    st.sampled_from(_KEYS),
    st.one_of(
        st.integers(min_value=0, max_value=12).map(lambda minute: minute * 60),
        st.sampled_from(_ODD_TIMESTAMPS),
    ),
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.sampled_from(_ODD_VALUES),
    ),
)


def _observe(store, calls):
    """Everything the equivalence covers, series-dict order included."""
    return {
        "series": [
            (key, list(buffer.timestamps), list(buffer.values))
            for key, buffer in store._series.items()
        ],
        "versions": {t: store.data_version(t) for t in (None, "t1", "t2")},
        "latest": store.latest_timestamp(),
        "notified": set(calls),
    }


class TestBatchEqualsSequentialWrites:
    @settings(max_examples=200, deadline=None)
    @given(
        batches=st.lists(st.lists(_ENTRY, max_size=12), min_size=1, max_size=3),
        retention=st.sampled_from([None, 60, 180, 600]),
    )
    def test_arbitrary_interleavings(self, batches, retention):
        batched = MetricsStore(retention_seconds=retention)
        batched_calls: list[str | None] = []
        batched.add_invalidation_listener(batched_calls.append)
        batched_errors = [
            error
            for entries in batches
            for error in batched.apply_sample_batch(entries)
        ]

        sequential = MetricsStore(retention_seconds=retention)
        sequential_calls: list[str | None] = []
        sequential.add_invalidation_listener(sequential_calls.append)
        sequential_errors: list[str | None] = []
        for key, timestamp, value in (e for entries in batches for e in entries):
            try:
                sequential.write(key.name, timestamp, value, key.tag_dict())
            except MetricsError as exc:
                sequential_errors.append(str(exc))
            else:
                sequential_errors.append(None)

        assert batched_errors == sequential_errors
        assert _observe(batched, batched_calls) == _observe(
            sequential, sequential_calls
        )

        # The same batches into a durable store journal exactly what
        # landed: the reopened store holds what the in-memory one does.
        with tempfile.TemporaryDirectory() as data_dir:
            with DurableMetricsStore(data_dir, retention, fsync="never") as durable:
                durable_errors = [
                    error
                    for entries in batches
                    for error in durable.apply_sample_batch(entries)
                ]
            with DurableMetricsStore(data_dir, retention) as reopened:
                assert store_content_hash(reopened) == store_content_hash(batched)
        assert durable_errors == batched_errors


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
