"""Repeated reads reuse frozen series views until a write invalidates."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MetricsError
from repro.timeseries.series import TimeSeries
from repro.timeseries.store import MetricsStore

TAGS = {"topology": "t", "component": "c"}


def populated_store() -> MetricsStore:
    store = MetricsStore()
    for minute in range(5):
        store.write("execute-count", minute * 60, float(minute), TAGS)
    return store


class TestFrozenViewCache:
    def test_repeated_get_returns_same_object(self):
        store = populated_store()
        first = store.get("execute-count", TAGS)
        second = store.get("execute-count", TAGS)
        assert first is second

    def test_views_are_read_only(self):
        store = populated_store()
        series = store.get("execute-count", TAGS)
        assert not series.values.flags.writeable
        assert not series.timestamps.flags.writeable

    def test_write_invalidates_the_cached_view(self):
        store = populated_store()
        before = store.get("execute-count", TAGS)
        version = store.data_version("t")
        store.write("execute-count", 300, 5.0, TAGS)
        assert store.data_version("t") > version
        after = store.get("execute-count", TAGS)
        assert after is not before
        assert len(after) == len(before) + 1

    def test_query_reuses_the_same_frozen_views(self):
        store = populated_store()
        (first,) = store.query("execute-count", {"topology": "t"}).values()
        (second,) = store.query("execute-count", {"topology": "t"}).values()
        assert first is second

    def test_unrelated_series_keep_their_cache(self):
        store = populated_store()
        other_tags = {"topology": "t", "component": "other"}
        store.write("execute-count", 0, 1.0, other_tags)
        cached = store.get("execute-count", TAGS)
        store.write("execute-count", 60, 2.0, other_tags)
        assert store.get("execute-count", TAGS) is cached

    def test_retention_trim_invalidates(self):
        store = MetricsStore(retention_seconds=120)
        for minute in range(3):
            store.write("execute-count", minute * 60, float(minute), TAGS)
        before = store.get("execute-count", TAGS)
        store.write("execute-count", 300, 9.0, TAGS)  # trims old minutes
        after = store.get("execute-count", TAGS)
        assert after is not before
        assert int(after.timestamps[0]) >= 300 - 120


#: One step on a three-series store: a keyed write ``minutes`` after the
#: series' last sample (0 is refused as out of order), a prepared minute
#: for every series, a direct trim, or a read that caches views.
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 2), st.integers(0, 3)),
        st.tuples(st.just("minute")),
        st.tuples(st.just("trim"), st.integers(0, 2), st.integers(0, 4)),
        st.tuples(st.just("read"), st.integers(0, 2)),
        st.tuples(st.just("query")),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(_steps, st.sampled_from([None, 60, 240]))
def test_a_frozen_view_is_always_a_view_of_its_buffer(steps, retention):
    """The cached view is reused while it is as long as its buffer: that
    must never serve samples the buffer no longer (or does not yet) hold,
    whatever interleaving of writes, minute batches, trims and retention
    came before."""
    store = MetricsStore(retention_seconds=retention)
    tags = [{"topology": "t", "instance": str(i)} for i in range(3)]
    for t in tags:
        store.write("m", 60, 0.0, t)
    keys = [store.key_of("m", t) for t in tags]
    buffers = [store._series[key] for key in keys]
    for step in steps:
        kind = step[0]
        if kind == "write":
            _, i, minutes = step
            last = buffers[i].timestamps[-1] if buffers[i].timestamps else 0
            try:
                store.write("m", last + 60 * minutes, float(len(steps)), tags[i])
            except MetricsError:
                pass
        elif kind == "minute":
            batch = store.make_minute_batch(keys)
            store.append_minute_batch(
                batch, (store.latest_timestamp() or 0) + 60, [1.0, 2.0, 3.0], "t"
            )
        elif kind == "trim":
            _, i, minutes = step
            buffers[i].trim_before(60 * minutes)
        elif kind == "read":
            store.get("m", tags[step[1]])
        else:
            store.query("m", {"topology": "t"})
        for buffer in buffers:
            view, fresh = buffer.freeze(), TimeSeries(buffer.timestamps, buffer.values)
            assert view.timestamps.tolist() == fresh.timestamps.tolist()
            assert view.values.tolist() == fresh.values.tolist()
