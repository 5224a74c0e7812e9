"""Tests for the in-memory property graph (TinkerPop data model)."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graph.property_graph import PropertyGraph


@pytest.fixture()
def diamond() -> PropertyGraph:
    """a -> b -> d and a -> c -> d (a diamond DAG)."""
    g = PropertyGraph()
    for vid in "abcd":
        g.add_vertex(vid, "node", {"name": vid})
    g.add_edge("a", "b", "e")
    g.add_edge("a", "c", "e")
    g.add_edge("b", "d", "e")
    g.add_edge("c", "d", "e")
    return g


class TestMutation:
    def test_duplicate_vertex_rejected(self, diamond):
        with pytest.raises(GraphError, match="already exists"):
            diamond.add_vertex("a", "node")

    def test_edge_requires_endpoints(self):
        g = PropertyGraph()
        g.add_vertex("a", "node")
        with pytest.raises(GraphError, match="does not exist"):
            g.add_edge("a", "missing", "e")
        with pytest.raises(GraphError, match="does not exist"):
            g.add_edge("missing", "a", "e")

    def test_duplicate_edge_rejected(self, diamond):
        with pytest.raises(GraphError, match="already exists"):
            diamond.add_edge("a", "b", "e")

    def test_same_endpoints_different_label_allowed(self, diamond):
        diamond.add_edge("a", "b", "other")
        assert len(diamond.out_edges("a")) == 3


class TestRead:
    def test_vertex_lookup_and_properties(self, diamond):
        vertex = diamond.vertex("a")
        assert vertex["name"] == "a"
        assert vertex.get("missing", 42) == 42
        with pytest.raises(GraphError, match="no property"):
            vertex["missing"]

    def test_out_and_in_edges(self, diamond):
        assert len(diamond.out_edges("a")) == 2
        assert diamond.out_edges("d") == []

    def test_sources_and_sinks(self, diamond):
        assert [v.id for v in diamond.sinks()] == ["d"]


class TestAlgorithms:
    def test_topological_order_respects_edges(self, diamond):
        order = [v.id for v in diamond.topological_order()]
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_cycle_detection(self):
        g = PropertyGraph()
        g.add_vertex("a", "n")
        g.add_vertex("b", "n")
        g.add_edge("a", "b", "e")
        g.add_edge("b", "a", "e")
        with pytest.raises(GraphError, match="cycle"):
            g.topological_order()

    def test_all_paths_enumerates_both_diamond_arms(self, diamond):
        paths = [[v.id for v in p] for p in diamond.all_paths("a", "d")]
        assert sorted(paths) == [["a", "b", "d"], ["a", "c", "d"]]

    def test_all_paths_no_path(self, diamond):
        assert list(diamond.all_paths("d", "a")) == []

    def test_all_paths_source_equals_target(self, diamond):
        paths = [[v.id for v in p] for p in diamond.all_paths("a", "a")]
        assert paths == [["a"]]

    def test_all_paths_with_cycle_terminates(self):
        g = PropertyGraph()
        for vid in "abc":
            g.add_vertex(vid, "n")
        g.add_edge("a", "b", "e")
        g.add_edge("b", "a", "e")
        g.add_edge("b", "c", "e")
        paths = [[v.id for v in p] for p in g.all_paths("a", "c")]
        assert paths == [["a", "b", "c"]]
