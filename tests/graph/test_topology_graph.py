"""Tests for topology↔graph adapters and path calculations."""

from __future__ import annotations

import pytest

from repro.graph.topology_graph import (
    logical_graph,
    path_count,
    source_sink_paths,
)
from repro.heron.groupings import ShuffleGrouping
from repro.heron.topology import TopologyBuilder
from repro.heron.wordcount import WordCountParams, build_word_count


@pytest.fixture()
def wordcount():
    params = WordCountParams(
        spout_parallelism=2, splitter_parallelism=2, counter_parallelism=4
    )
    return build_word_count(params)


class TestLogicalGraph:
    def test_vertices_and_labels(self, wordcount):
        topology, _, _ = wordcount
        g = logical_graph(topology)
        assert len(g.topological_order()) == 3
        assert g.vertex("sentence-spout").label == "spout"
        assert g.vertex("splitter")["parallelism"] == 2

    def test_edge_labels_are_grouping_names(self, wordcount):
        topology, _, _ = wordcount
        g = logical_graph(topology)
        (edge,) = g.out_edges("sentence-spout")
        assert edge.label == "shuffle"
        (edge,) = g.out_edges("splitter")
        assert edge.label == "fields"


class TestPaths:
    def test_source_sink_paths_wordcount(self, wordcount):
        topology, _, _ = wordcount
        assert source_sink_paths(topology) == [
            ["sentence-spout", "splitter", "counter"]
        ]

    def test_path_count_matches_paper_example(self, wordcount):
        # Fig. 1: parallelisms 2 (spout) x 2 (splitter) x 4 (counter) = 16.
        topology, _, _ = wordcount
        assert path_count(topology) == 16

    def test_path_count_multi_path(self):
        builder = TopologyBuilder("diamond")
        builder.add_spout("s", 2)
        builder.add_bolt("left", 3)
        builder.add_bolt("right", 5)
        builder.add_bolt("sink", 1)
        builder.connect("s", "left", ShuffleGrouping())
        builder.connect("s", "right", ShuffleGrouping())
        builder.connect("left", "sink", ShuffleGrouping())
        builder.connect("right", "sink", ShuffleGrouping())
        topology = builder.build()
        assert path_count(topology) == 2 * 3 * 1 + 2 * 5 * 1
