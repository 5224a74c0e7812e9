"""An in-memory directed property graph.

Vertices and edges carry a string label and a free-form property mapping,
mirroring the TinkerPop data model that Caladrius's graph interface is
built on.  It stores a topology's components and streams and enumerates
the simple paths between two of them; that is all the models ask of it.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Any

from repro.errors import GraphError

__all__ = ["Vertex", "Edge", "PropertyGraph"]


class Vertex:
    """A graph vertex: identity, label and properties."""

    __slots__ = ("id", "label", "properties")

    def __init__(self, vertex_id: str, label: str, properties: dict[str, Any]) -> None:
        self.id = vertex_id
        self.label = label
        self.properties = properties

    def __getitem__(self, key: str) -> Any:
        try:
            return self.properties[key]
        except KeyError:
            raise GraphError(f"vertex {self.id!r} has no property {key!r}") from None

    def get(self, key: str, default: Any = None) -> Any:
        """Property value, or ``default`` when absent."""
        return self.properties.get(key, default)

    def __repr__(self) -> str:
        return f"Vertex({self.id!r}, label={self.label!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vertex) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("vertex", self.id))


class Edge:
    """A directed edge: source vertex id, target vertex id, label, properties."""

    __slots__ = ("source", "target", "label", "properties")

    def __init__(
        self,
        source: str,
        target: str,
        label: str,
        properties: dict[str, Any],
    ) -> None:
        self.source = source
        self.target = target
        self.label = label
        self.properties = properties

    def __getitem__(self, key: str) -> Any:
        try:
            return self.properties[key]
        except KeyError:
            raise GraphError(
                f"edge {self.source!r}->{self.target!r} has no property {key!r}"
            ) from None

    def get(self, key: str, default: Any = None) -> Any:
        """Property value, or ``default`` when absent."""
        return self.properties.get(key, default)

    def __repr__(self) -> str:
        return f"Edge({self.source!r}->{self.target!r}, label={self.label!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Edge)
            and other.source == self.source
            and other.target == self.target
            and other.label == self.label
        )

    def __hash__(self) -> int:
        return hash(("edge", self.source, self.target, self.label))


class PropertyGraph:
    """A directed multigraph with labelled, property-carrying elements.

    At most one edge may exist per ``(source, target, label)`` triple,
    which is all topology graphs need (parallel edges between the same
    component pair would be distinct streams and carry distinct labels).
    """

    def __init__(self) -> None:
        self._vertices: dict[str, Vertex] = {}
        self._out: dict[str, dict[tuple[str, str], Edge]] = {}
        self._in: dict[str, dict[tuple[str, str], Edge]] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(
        self,
        vertex_id: str,
        label: str,
        properties: Mapping[str, Any] | None = None,
    ) -> Vertex:
        """Insert a vertex; duplicate ids are rejected."""
        if vertex_id in self._vertices:
            raise GraphError(f"vertex {vertex_id!r} already exists")
        vertex = Vertex(vertex_id, label, dict(properties or {}))
        self._vertices[vertex_id] = vertex
        self._out[vertex_id] = {}
        self._in[vertex_id] = {}
        return vertex

    def add_edge(
        self,
        source: str,
        target: str,
        label: str,
        properties: Mapping[str, Any] | None = None,
    ) -> Edge:
        """Insert a directed edge; both endpoints must already exist."""
        if source not in self._vertices:
            raise GraphError(f"edge source vertex {source!r} does not exist")
        if target not in self._vertices:
            raise GraphError(f"edge target vertex {target!r} does not exist")
        key = (target, label)
        if key in self._out[source]:
            raise GraphError(
                f"edge {source!r}->{target!r} with label {label!r} already exists"
            )
        edge = Edge(source, target, label, dict(properties or {}))
        self._out[source][key] = edge
        self._in[target][(source, label)] = edge
        return edge

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def vertex(self, vertex_id: str) -> Vertex:
        """The vertex with the given id (raises when absent)."""
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise GraphError(f"vertex {vertex_id!r} does not exist") from None

    def out_edges(self, vertex_id: str, label: str | None = None) -> list[Edge]:
        """Edges leaving a vertex, optionally filtered by label."""
        if vertex_id not in self._vertices:
            raise GraphError(f"vertex {vertex_id!r} does not exist")
        return [
            e
            for e in self._out[vertex_id].values()
            if label is None or e.label == label
        ]

    def sinks(self) -> list[Vertex]:
        """Vertices with no outgoing edges."""
        return [v for v in self._vertices.values() if not self._out[v.id]]

    # ------------------------------------------------------------------
    # Algorithms
    # ------------------------------------------------------------------
    def topological_order(self) -> list[Vertex]:
        """Vertices in a topological order (raises on cycles)."""
        in_degree = {vid: len(self._in[vid]) for vid in self._vertices}
        queue = sorted(vid for vid, deg in in_degree.items() if deg == 0)
        order: list[Vertex] = []
        while queue:
            vid = queue.pop(0)
            order.append(self._vertices[vid])
            for edge in self._out[vid].values():
                in_degree[edge.target] -= 1
                if in_degree[edge.target] == 0:
                    queue.append(edge.target)
        if len(order) != len(self._vertices):
            raise GraphError("graph contains a cycle; no topological order exists")
        return order

    def all_paths(self, source: str, target: str) -> Iterator[list[Vertex]]:
        """Yield every simple directed path from ``source`` to ``target``."""
        if source not in self._vertices:
            raise GraphError(f"vertex {source!r} does not exist")
        if target not in self._vertices:
            raise GraphError(f"vertex {target!r} does not exist")

        path: list[str] = [source]
        on_path = {source}

        def walk(current: str) -> Iterator[list[Vertex]]:
            if current == target:
                yield [self._vertices[v] for v in path]
                return
            for edge in self._out[current].values():
                nxt = edge.target
                if nxt in on_path:
                    continue
                path.append(nxt)
                on_path.add(nxt)
                yield from walk(nxt)
                path.pop()
                on_path.discard(nxt)

        yield from walk(source)
