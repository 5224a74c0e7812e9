"""Topology ↔ property-graph adapter and path calculations.

Caladrius uploads each topology's logical graph into the graph database
and runs path calculations over it (paper Section III-C1).  This module
materialises the **logical graph** — one vertex per component, edges
labelled with their grouping — and the path utilities over it:
source→sink path enumeration, which the models chain Eq. 12 along, and
the combinatorial path count of the physical plan.
"""

from __future__ import annotations

import math

from repro.errors import GraphError
from repro.graph.property_graph import PropertyGraph
from repro.heron.topology import LogicalTopology

__all__ = ["logical_graph", "source_sink_paths", "path_count"]


def logical_graph(topology: LogicalTopology) -> PropertyGraph:
    """One vertex per component; one edge per stream.

    Vertex label is ``"spout"`` or ``"bolt"``; properties carry the
    parallelism.  Edge label is the grouping name; properties carry the
    stream name.
    """
    graph = PropertyGraph()
    for component in topology.components.values():
        graph.add_vertex(
            component.name,
            component.kind,
            {"parallelism": component.parallelism},
        )
    for stream in topology.streams:
        graph.add_edge(
            stream.source,
            stream.destination,
            stream.grouping.name,
            {"stream": stream.name},
        )
    return graph


def source_sink_paths(topology: LogicalTopology) -> list[list[str]]:
    """Every component-level path from a spout to a sink, by name."""
    graph = logical_graph(topology)
    paths: list[list[str]] = []
    for spout in topology.spouts():
        for sink in topology.sinks():
            if sink.name == spout.name:
                paths.append([spout.name])
                continue
            for path in graph.all_paths(spout.name, sink.name):
                paths.append([v.id for v in path])
    if not paths:
        raise GraphError("topology has no source→sink path")
    return paths


def path_count(topology: LogicalTopology) -> int:
    """Number of distinct instance-level tuple paths through the topology.

    For each component-level path, the instance choices multiply (the
    paper's Fig. 1 example: parallelisms 2×2×4 = 16 possible paths).
    Routing through stream managers "does not increase the number of
    possible paths" (Section II-E), so only instances count.
    """
    total = 0
    for path in source_sink_paths(topology):
        total += math.prod(topology.parallelism(name) for name in path)
    return total
