"""Tests for the topology tracker."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.heron.tracker import TopologyTracker
from repro.heron.wordcount import WordCountParams, build_word_count


@pytest.fixture()
def tracked_setup():
    topology, packing, _ = build_word_count(
        WordCountParams(splitter_parallelism=2, counter_parallelism=2)
    )
    tracker = TopologyTracker()
    record = tracker.register(topology, packing)
    return tracker, topology, packing, record


class TestRegistration:
    def test_register_and_get(self, tracked_setup):
        tracker, topology, _, record = tracked_setup
        assert tracker.get("word-count") is record
        assert record.name == "word-count"

    def test_get_unknown_raises(self, tracked_setup):
        tracker, *_ = tracked_setup
        with pytest.raises(TopologyError, match="not registered"):
            tracker.get("missing")

    def test_names_sorted(self, tracked_setup):
        tracker, *_ = tracked_setup
        assert tracker.names() == ["word-count"]

    def test_register_mismatched_packing_rejected(self, tracked_setup):
        tracker, topology, _, _ = tracked_setup
        other_topology, other_packing, _ = build_word_count()
        from repro.heron.packing import PackingPlan

        bad = PackingPlan("other-name", other_packing.containers)
        with pytest.raises(TopologyError, match="belongs to"):
            tracker.register(topology, bad)

    def test_cluster_environ_scoping(self, tracked_setup):
        tracker, topology, packing, _ = tracked_setup
        tracker.register(topology, packing, cluster="prod", environ="live")
        assert tracker.get("word-count", "prod", "live")
        with pytest.raises(TopologyError):
            tracker.get("word-count", "prod", "staging")


class TestUpdate:
    def test_update_bumps_revision(self, tracked_setup):
        tracker, topology, packing, record = tracked_setup
        updated = tracker.update("word-count", topology, packing)
        assert updated.revision > record.revision

    def test_update_unregistered_rejected(self, tracked_setup):
        tracker, topology, packing, _ = tracked_setup
        with pytest.raises(TopologyError, match="not registered"):
            tracker.update("missing", topology, packing)

    def test_update_name_mismatch_rejected(self, tracked_setup):
        tracker, topology, packing, _ = tracked_setup
        renamed = topology.with_parallelism({})
        # Build a topology with a different name entirely.
        from repro.heron.groupings import ShuffleGrouping
        from repro.heron.topology import TopologyBuilder

        builder = TopologyBuilder("other")
        builder.add_spout("s", 1)
        builder.add_bolt("b", 1)
        builder.connect("s", "b", ShuffleGrouping())
        other = builder.build()
        with pytest.raises(TopologyError, match="cannot update"):
            tracker.update("word-count", other, packing)
        assert renamed.name == "word-count"


class TestPlans:
    def test_logical_plan_shape(self, tracked_setup):
        _, _, _, record = tracked_setup
        plan = record.logical_plan()
        assert set(plan["spouts"]) == {"sentence-spout"}
        assert set(plan["bolts"]) == {"splitter", "counter"}
        counter_inputs = plan["bolts"]["counter"]["inputs"]
        assert counter_inputs[0]["grouping"] == "fields"

    def test_packing_plan_is_summary(self, tracked_setup):
        _, _, packing, record = tracked_setup
        assert record.packing_plan() == packing.summary()
