"""``topology_frame`` reads a topology once and answers as the per-call
reads did.

One frame replaces the ``query`` / ``aggregate_complete`` scan a
calibration used to make per component, metric and stream.  For every
``(name, component[, stream])`` and window, the frame's group must hold
the series the parent's ``query`` returned — same keys, same order, same
bytes — and its complete-minute aggregate must equal the parent's
``aggregate_complete`` bit for bit, whether the group is dense (one
shared timestamp vector, summed as a block) or ragged (a crash, a
dropout, a late joiner: the per-member rule).
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MetricsError
from repro.timeseries.store import MetricsStore
from tests.timeseries.linear_reference import (
    linear_aggregate_complete,
    linear_query,
    outcome,
    plain,
    series_bytes,
)

NAMES = ("received-count", "stream-emit-count")
COMPONENTS = ("splitter", "counter")
STREAMS = (None, "words", "stats")
UNVIEWABLE = ("raised", "infinite values are not allowed")


def assert_frame_matches_per_call_reads(store, topology="t", starts=(None, 180, 10**6)):
    for start in starts:
        frame = store.topology_frame(topology, NAMES, start=start)
        for name in NAMES:
            for component in (*COMPONENTS, "never-deployed"):
                for stream in STREAMS:
                    tag_filter = {"topology": topology, "component": component}
                    if stream is not None:
                        tag_filter["stream"] = stream
                    where = (name, tag_filter, start)
                    expected = outcome(lambda: linear_query(store, *where))
                    group = outcome(lambda: frame.group(name, component, stream))
                    if stream is not None and group == UNVIEWABLE:
                        # The one difference: an infinite sample fails every
                        # read of its (name, component), whichever stream
                        # the read asks for — not only the reads matching it.
                        assert UNVIEWABLE == outcome(
                            lambda: linear_query(
                                store, name,
                                {"topology": topology, "component": component},
                            )
                        ), where
                        continue
                    if expected[0] == "raised":  # a series no view can hold
                        assert group == expected, where
                        continue
                    complete = outcome(
                        lambda: linear_aggregate_complete(store, *where)
                    )
                    if not expected[1]:
                        assert group == complete, where  # "no series match ..."
                        continue
                    assert group[0] == "ok", (where, group)
                    group = group[1]
                    assert list(group.keys) == list(expected[1]), where
                    assert group.tag_values("instance") == [
                        dict(key.tags).get("instance") for key in group.keys
                    ]
                    assert [series_bytes(s) for s in group.series()] == [
                        series_bytes(s) for s in expected[1].values()
                    ], where
                    assert plain(outcome(group.complete)) == plain(complete), where


def write_member(store, name, component, minutes_values, topology="t", **tags):
    store.write_many(
        name,
        [(60 * minute, value) for minute, value in minutes_values],
        {"topology": topology, "component": component, **tags},
    )


# ----------------------------------------------------------------------
# Named shapes
# ----------------------------------------------------------------------
def dense_store(instances=4, minutes=range(1, 9)):
    store = MetricsStore()
    rng = np.random.default_rng(5)
    for component in COMPONENTS:
        for index in range(instances):
            for stream in ("words", "stats"):
                write_member(
                    store, "stream-emit-count", component,
                    [(m, float(rng.uniform(0, 1e7))) for m in minutes],
                    instance=f"{component}_{index}", stream=stream,
                )
            write_member(
                store, "received-count", component,
                [(m, float(rng.uniform(0, 1e7))) for m in minutes],
                instance=f"{component}_{index}",
            )
    return store


class TestDenseGroups:
    def test_blocks_are_members_by_minutes(self):
        store = dense_store()
        frame = store.topology_frame("t", NAMES)
        group = frame.group("received-count", "splitter")
        assert group.block.shape == (4, 8) and group.members is None
        assert group.timestamps.tolist() == [60 * m for m in range(1, 9)]
        assert frame.group("stream-emit-count", "splitter").block.shape == (8, 8)
        words = frame.group("stream-emit-count", "splitter", "words")
        assert words.block.shape == (4, 8)
        assert set(words.tag_values("stream")) == {"words"}
        assert_frame_matches_per_call_reads(store)

    @pytest.mark.parametrize("instances", [1, 2, 9, 130])
    @pytest.mark.parametrize("minutes", [1, 2, 15])
    def test_sum_order_is_the_rules_at_every_shape(self, instances, minutes):
        """One column (where a plain ``sum`` goes pairwise), one row, wide."""
        store = dense_store(instances, range(1, minutes + 1))
        assert_frame_matches_per_call_reads(store, starts=(None,))

    def test_negative_zero_first_value(self):
        store = MetricsStore()
        for index in range(3):  # the rule's running total starts at +0.0
            write_member(
                store, "received-count", "splitter",
                [(1, -0.0), (2, -0.0), (3, 1.5)], instance=f"i{index}",
            )
        series, _ = store.topology_frame("t", NAMES).group(
            "received-count", "splitter"
        ).complete()
        assert series.values.tobytes() == np.array([0.0, 0.0, 4.5]).tobytes()
        assert_frame_matches_per_call_reads(store)

    def test_interior_cadence_gap_is_degraded(self):
        store = MetricsStore()
        for index in range(3):
            write_member(
                store, "received-count", "splitter",
                [(m, 1.0) for m in (1, 2, 3, 6, 7)], instance=f"i{index}",
            )
        group = store.topology_frame("t", NAMES).group("received-count", "splitter")
        assert group.block is not None
        assert group.complete()[1] == [240, 300]
        assert_frame_matches_per_call_reads(store)

    def test_a_dense_frame_allocates_nothing_per_member(self):
        """Per-member containers (a copied list, a tag dictionary) are
        what the cyclic collector counts: thousands per frame meant a
        full collection — tens of milliseconds with the GIL held — every
        dozen calibrations, stalling the writer beside them."""
        store = dense_store(instances=600, minutes=range(1, 6))
        collections = []
        gc.collect()
        gc.callbacks.append(lambda phase, info: collections.append(phase))
        try:
            frame = store.topology_frame("t", NAMES)
            frame.group("stream-emit-count", "splitter", "words").complete()
        finally:
            gc.callbacks.pop()
        assert collections == []
        assert frame.group("stream-emit-count", "counter").block.shape == (1200, 5)

    def test_a_frame_is_a_snapshot(self):
        store = dense_store(2, range(1, 4))
        frame = store.topology_frame("t", NAMES)
        before = plain(frame.group("received-count", "splitter").complete())
        write_member(store, "received-count", "splitter", [(9, 5.0)], instance="splitter_0")
        store.clear()
        assert plain(frame.group("received-count", "splitter").complete()) == before


class TestRaggedGroups:
    def ragged(self, **faults):
        """Four instances over minutes 1-8; ``faults[instance] = minutes kept``."""
        store = MetricsStore()
        for index in range(4):
            kept = faults.get(f"i{index}", range(1, 9))
            write_member(
                store, "received-count", "splitter",
                [(m, float(10 * index + m)) for m in kept], instance=f"i{index}",
            )
        return store

    @pytest.mark.parametrize(
        "faults",
        [
            {"i1": [1, 2, 3, 6, 7, 8]},          # crash mid-window, recovered
            {"i2": [1, 2, 3]},                   # crashed for good
            {"i0": [1, 3, 5, 7]},                # metric dropout
            {"i3": [5, 6, 7, 8]},                # late joiner
            {"i0": [1, 2], "i3": [7, 8]},        # no minute has everyone
        ],
    )
    def test_faults(self, faults):
        store = self.ragged(**faults)
        group = store.topology_frame("t", NAMES).group("received-count", "splitter")
        assert group.block is None and len(group.members) == 4
        assert_frame_matches_per_call_reads(store)

    def test_duplicate_and_missing_instance_tags(self):
        store = self.ragged()
        write_member(store, "received-count", "splitter", [(1, 1.0)], instance="i0", container="9")
        write_member(store, "received-count", "splitter", [(m, 2.0) for m in range(1, 9)])
        assert_frame_matches_per_call_reads(store)

    def test_window_can_make_a_ragged_group_whole(self):
        """A member wholly outside the window is not an instance of it."""
        store = self.ragged(i2=[1, 2, 3])
        series, degraded = store.topology_frame("t", NAMES, start=240).group(
            "received-count", "splitter"
        ).complete()
        assert degraded == [] and series.timestamps.tolist() == [240, 300, 360, 420, 480]
        assert_frame_matches_per_call_reads(store)

    def test_infinite_sample_raises_where_the_group_is_read(self):
        store = self.ragged()
        write_member(store, "received-count", "counter", [(1, float("inf"))], instance="c0")
        frame = store.topology_frame("t", NAMES)  # reading is fine
        frame.group("received-count", "splitter")
        with pytest.raises(MetricsError, match="infinite values"):
            frame.group("received-count", "counter")
        assert_frame_matches_per_call_reads(store)


class TestEmptyAndForeign:
    def test_nothing_written(self):
        frame = MetricsStore().topology_frame("t", NAMES)
        with pytest.raises(MetricsError, match="no series match 'received-count'"):
            frame.group("received-count", "splitter")

    def test_other_topologies_and_untagged_series_stay_out(self):
        store = dense_store(2, range(1, 4))
        write_member(store, "received-count", "splitter", [(1, 7.0)], topology="other", instance="x")
        store.write("received-count", 60, 7.0, {"component": "splitter"})
        group = store.topology_frame("t", NAMES).group("received-count", "splitter")
        assert len(group.keys) == 2
        assert_frame_matches_per_call_reads(store)
        assert_frame_matches_per_call_reads(store, topology="other")

    def test_retention_emptied_member(self):
        store = MetricsStore(retention_seconds=180)
        write_member(store, "received-count", "splitter", [(1, 1.0), (2, 1.0)], instance="gone")
        for minute in range(1, 10):
            write_member(store, "received-count", "splitter", [(minute, 2.0)], instance="stays")
        assert len(store.get("received-count", {
            "topology": "t", "component": "splitter", "instance": "gone",
        })) == 0
        series, degraded = store.topology_frame("t", NAMES).group(
            "received-count", "splitter"
        ).complete()
        assert degraded == [] and set(series.values.tolist()) == {2.0}
        assert_frame_matches_per_call_reads(store)


# ----------------------------------------------------------------------
# Generated stores
# ----------------------------------------------------------------------
values = st.one_of(
    st.integers(0, 10**7).map(float),
    st.floats(allow_nan=True, allow_infinity=False),
    st.just(-0.0),
)


@st.composite
def members(draw):
    """One series: where it sits and which minutes it reports."""
    name = draw(st.sampled_from(NAMES))
    tags = {}
    if draw(st.integers(0, 5)):
        tags["instance"] = draw(st.sampled_from(("i0", "i1", "i2")))
    if name == "stream-emit-count" and draw(st.integers(0, 5)):
        tags["stream"] = draw(st.sampled_from(("words", "stats")))
    if draw(st.integers(0, 3)) == 0:
        tags["container"] = draw(st.sampled_from(("1", "2")))
    shape = draw(st.sampled_from(("whole", "whole", "whole", "crash", "late", "dropout")))
    kept = {
        "whole": range(1, 9),
        "crash": [1, 2, 3, 7, 8],
        "late": range(4, 9),
        "dropout": [1, 3, 5, 7],
    }[shape]
    topology = draw(st.sampled_from(("t", "t", "t", "other")))
    component = draw(st.sampled_from(COMPONENTS))
    samples = [(m, draw(values)) for m in kept]
    if name == "received-count" and draw(st.integers(0, 40)) == 0:
        samples[-1] = (samples[-1][0], float("inf"))
    return name, component, topology, tags, samples


@given(st.lists(members(), max_size=14), st.sampled_from((None, 120, 300)))
@settings(max_examples=150, deadline=None)
def test_frame_equals_per_call_reads_on_generated_stores(written, retention):
    store = MetricsStore(retention_seconds=retention)
    for name, component, topology, tags, samples in written:
        try:
            write_member(store, name, component, samples, topology, **tags)
        except MetricsError:
            pass  # the same series drawn twice: its second copy is out of order
    assert_frame_matches_per_call_reads(store)
    assert_frame_matches_per_call_reads(store, topology="other", starts=(None,))
