"""The ``(name, topology)`` series index changes the cost of a read, nothing else.

``MetricsStore.query`` walks one bucket of the index when its filter
names a ``topology``.  The properties here hold that short cut to the
long way round: over generated sequences of ``write`` / ``write_many`` /
``ingest_frames`` / ``clear`` on stores with and without retention —
permuted tag orders, untagged series, the same name under two topologies
— ``query``, ``aggregate``, ``aggregate_complete``, ``group_by`` and
``keys`` must answer exactly as the linear scan of every series kept in
this module does: key order, array bytes, degraded lists, error wording.
Three deliberately broken stores show the comparison can fail.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.errors import MetricsError
from repro.timeseries.store import MetricsStore, write_head, write_record
from tests.timeseries.linear_reference import (
    linear_aggregate,
    linear_aggregate_complete,
    linear_group_by,
    linear_keys,
    linear_query,
    outcome,
    plain,
)

NAMES = ("emit-count", "cpu-load")
TOPOLOGIES = (None, "t1", "t2")
COMPONENTS = (None, "spout", "bolt")
INSTANCES = ("i0", "i1", "i2")


def filters():
    yield None
    yield {}
    for topology in ("t1", "t2", "elsewhere"):
        yield {"topology": topology}
        for component in ("spout", "bolt"):
            yield {"topology": topology, "component": component}
            yield {"component": component, "topology": topology, "instance": "i1"}
    yield {"component": "bolt"}
    yield {"instance": "i0"}


def assert_reads_match_linear_scan(store) -> None:
    for name in (*NAMES, "never-written"):
        assert store.keys(name) == linear_keys(store, name)
        for tag_filter in filters():
            for start in (None, 180):
                args = (name, tag_filter, start)
                assert plain(outcome(lambda: store.query(*args))) == plain(
                    outcome(lambda: linear_query(store, *args))
                ), args
                assert plain(outcome(lambda: store.aggregate(*args))) == plain(
                    outcome(lambda: linear_aggregate(store, *args))
                ), args
                assert plain(
                    outcome(lambda: store.aggregate_complete(*args))
                ) == plain(
                    outcome(lambda: linear_aggregate_complete(store, *args))
                ), args
            assert plain(
                outcome(lambda: store.group_by(name, "component", tag_filter))
            ) == plain(
                outcome(lambda: linear_group_by(store, name, "component", tag_filter))
            ), (name, tag_filter)
    assert store.keys() == linear_keys(store)


def assert_index_is_the_series(store) -> None:
    """One index entry per series, the very buffer, nothing else."""
    indexed = {
        key: buffer
        for keys, buffers in store._by_topology.values()
        for key, buffer in zip(keys, buffers)
    }
    assert all(len(keys) == len(buffers) for keys, buffers in store._by_topology.values())
    assert sum(len(keys) for keys, _ in store._by_topology.values()) == len(store._series)
    assert indexed.keys() == store._series.keys()
    assert all(indexed[key] is store._series[key] for key in indexed)
    for (name, topology), (keys, _) in store._by_topology.items():
        assert all((k.name, k.topology) == (name, topology) for k in keys)


# ----------------------------------------------------------------------
# Generated write sequences
# ----------------------------------------------------------------------
@st.composite
def tag_mappings(draw):
    tags = {}
    topology = draw(st.sampled_from(TOPOLOGIES))
    component = draw(st.sampled_from(COMPONENTS))
    if topology is not None:
        tags["topology"] = topology
    if component is not None:
        tags["component"] = component
    if draw(st.booleans()):
        tags["instance"] = draw(st.sampled_from(INSTANCES))
    if draw(st.booleans()):  # the same series, its tags in another order
        tags = dict(reversed(tags.items()))
    return tags


minutes = st.integers(0, 12).map(lambda k: 60 * k)
values = st.one_of(
    st.integers(0, 1000).map(float),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.just(-0.0),
)
samples = st.tuples(minutes, values)

operations = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(NAMES), tag_mappings(), samples),
    st.tuples(
        st.just("write_many"), st.sampled_from(NAMES), tag_mappings(),
        st.lists(samples, max_size=6),
    ),
    st.tuples(
        st.just("ingest_frames"),
        st.lists(
            st.tuples(st.sampled_from(NAMES), tag_mappings(), samples),
            min_size=1, max_size=8,
        ),
    ),
    st.tuples(st.just("clear")),
)


def apply(store, operation) -> None:
    kind = operation[0]
    try:
        if kind == "write":
            _, name, tags, (ts, value) = operation
            store.write(name, ts, value, tags)
        elif kind == "write_many":
            _, name, tags, points = operation
            store.write_many(name, points, tags)
        elif kind == "ingest_frames":
            store.ingest_frames([
                write_record(write_head(name, tags), ts, value)
                for name, tags, (ts, value) in operation[1]
            ])
        else:
            store.clear()
    except MetricsError:
        pass  # an out-of-order sample: what landed before it still counts


def run(make_store, retention, sequence, reads_only=False) -> None:
    store = make_store(retention)
    for operation in sequence:
        apply(store, operation)
        if not reads_only:
            assert_index_is_the_series(store)
    assert_reads_match_linear_scan(store)


cases = dict(
    retention=st.sampled_from((None, 120, 300)),
    sequence=st.lists(operations, max_size=14),
)


@given(**cases)
@settings(max_examples=120, deadline=None)
def test_indexed_reads_equal_the_linear_scan(retention, sequence):
    run(MetricsStore, retention, sequence)


# ----------------------------------------------------------------------
# Mutants: the comparison above must be able to fail
# ----------------------------------------------------------------------
class SkipsWriteMany(MetricsStore):
    """Creates a ``write_many`` series without indexing it."""

    def write_many(self, name, samples, tags=None):
        key = self.key_of(name, tags)
        known = key in self._series
        try:
            super().write_many(name, samples, tags)
        finally:
            keys, buffers = self._by_topology.get((key.name, key.topology), ([], []))
            if not known and key in keys:
                position = keys.index(key)
                del keys[position], buffers[position]


class ForgetsClear(MetricsStore):
    """``clear`` leaves the index behind."""

    def clear(self):
        kept = {
            k: (list(keys), list(buffers))
            for k, (keys, buffers) in self._by_topology.items()
        }
        super().clear()
        self._by_topology.update(kept)


class FillsBucketsBackwards(MetricsStore):
    """Buckets iterate newest series first."""

    def apply_sample_batch(self, entries, bodies=None):
        errors = super().apply_sample_batch(entries, bodies)
        for keys, buffers in self._by_topology.values():
            keys.reverse()
            buffers.reverse()
        return errors


@pytest.mark.parametrize(
    "mutant", [SkipsWriteMany, ForgetsClear, FillsBucketsBackwards]
)
def test_a_broken_index_is_caught(mutant):
    @given(**cases)
    @settings(
        max_examples=400, deadline=None, database=None, derandomize=True,
        phases=(Phase.generate,),  # finding one counterexample is the point
    )
    def differential(retention, sequence):
        # The reads alone have to notice: no peeking at the index.
        run(mutant, retention, sequence, reads_only=True)

    with pytest.raises(AssertionError):
        differential()


# ----------------------------------------------------------------------
# Index memory is O(series)
# ----------------------------------------------------------------------
def test_repeat_writes_add_no_entry_and_clear_leaves_none():
    store = MetricsStore(retention_seconds=120)
    tags = {"topology": "t1", "component": "bolt", "instance": "i0"}
    for minute in range(1, 30):
        store.write("emit-count", 60 * minute, 1.0, tags)
        store.write(
            "emit-count", 60 * minute + 30, 1.0, dict(reversed(tags.items()))
        )
        store.write("emit-count", 60 * minute, 1.0)
    assert len(store._series) == 2
    assert {k: len(keys) for k, (keys, _) in store._by_topology.items()} == {
        ("emit-count", "t1"): 1, ("emit-count", None): 1,
    }
    store.clear()
    assert store._by_topology == {}
    store.write("emit-count", 60, 1.0, tags)
    assert_index_is_the_series(store)
    assert list(store.query("emit-count", {"topology": "t1"})) == store.keys()
