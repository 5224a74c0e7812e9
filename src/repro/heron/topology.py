"""Logical topology definition: components, streams and validation.

A topology (paper Section II-A) is a directed acyclic graph of components.
Spouts pull tuples into the topology; bolts process them.  Each component
has a developer-chosen parallelism, and every edge (stream) carries a
grouping that decides how tuples are partitioned across the downstream
component's instances.

The classes here are pure structure — no behaviour.  Processing behaviour
(rates, I/O coefficients, CPU costs) is attached separately in
:mod:`repro.heron.simulation` so that a single logical topology can be
simulated, re-packed and scaled without rebuilding.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace

from repro.errors import TopologyError
from repro.heron.groupings import Grouping

__all__ = ["ComponentSpec", "Stream", "LogicalTopology", "TopologyBuilder"]

SPOUT = "spout"
BOLT = "bolt"
DEFAULT_STREAM = "default"


@dataclass(frozen=True)
class ComponentSpec:
    """One logical component: name, kind (spout/bolt) and parallelism."""

    name: str
    kind: str
    parallelism: int

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("component name must be non-empty")
        if self.kind not in (SPOUT, BOLT):
            raise TopologyError(f"component kind must be spout or bolt, got {self.kind!r}")
        if self.parallelism < 1:
            raise TopologyError(
                f"component {self.name!r} parallelism must be >= 1, "
                f"got {self.parallelism}"
            )

    @property
    def is_spout(self) -> bool:
        """True for source components."""
        return self.kind == SPOUT


@dataclass(frozen=True)
class Stream:
    """A directed edge between two components.

    ``name`` distinguishes multiple streams between the same component
    pair (a component may emit several logical output streams).
    """

    source: str
    destination: str
    grouping: Grouping
    name: str = DEFAULT_STREAM

    def key(self) -> tuple[str, str, str]:
        """The unique identity of this stream."""
        return (self.source, self.destination, self.name)


class LogicalTopology:
    """An immutable, validated topology DAG.

    Build instances through :class:`TopologyBuilder`; the constructor
    validates and should be considered internal to this module.
    """

    def __init__(
        self,
        name: str,
        components: Mapping[str, ComponentSpec],
        streams: Iterable[Stream],
    ) -> None:
        if not name:
            raise TopologyError("topology name must be non-empty")
        self.name = name
        self._components = dict(components)
        self._streams = list(streams)
        self._validate()
        self._out: dict[str, list[Stream]] = {c: [] for c in self._components}
        self._in: dict[str, list[Stream]] = {c: [] for c in self._components}
        for stream in self._streams:
            self._out[stream.source].append(stream)
            self._in[stream.destination].append(stream)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self._components:
            raise TopologyError("topology has no components")
        seen: set[tuple[str, str, str]] = set()
        for stream in self._streams:
            for endpoint in (stream.source, stream.destination):
                if endpoint not in self._components:
                    raise TopologyError(
                        f"stream references unknown component {endpoint!r}"
                    )
            if self._components[stream.destination].is_spout:
                raise TopologyError(
                    f"spout {stream.destination!r} cannot receive a stream"
                )
            if stream.key() in seen:
                raise TopologyError(f"duplicate stream {stream.key()!r}")
            seen.add(stream.key())
        spouts = [c for c in self._components.values() if c.is_spout]
        if not spouts:
            raise TopologyError("topology needs at least one spout")
        self._check_acyclic()
        self._check_bolts_connected()

    def _check_acyclic(self) -> None:
        adjacency: dict[str, list[str]] = {c: [] for c in self._components}
        for stream in self._streams:
            adjacency[stream.source].append(stream.destination)
        state: dict[str, int] = {}

        def visit(node: str) -> None:
            state[node] = 1
            for nxt in adjacency[node]:
                mark = state.get(nxt, 0)
                if mark == 1:
                    raise TopologyError(f"topology contains a cycle through {nxt!r}")
                if mark == 0:
                    visit(nxt)
            state[node] = 2

        for node in self._components:
            if state.get(node, 0) == 0:
                visit(node)

    def _check_bolts_connected(self) -> None:
        receiving = {s.destination for s in self._streams}
        for component in self._components.values():
            if not component.is_spout and component.name not in receiving:
                raise TopologyError(
                    f"bolt {component.name!r} receives no input stream"
                )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def components(self) -> dict[str, ComponentSpec]:
        """Name-to-spec mapping (a copy; the topology stays immutable)."""
        return dict(self._components)

    @property
    def streams(self) -> list[Stream]:
        """All streams (a copy)."""
        return list(self._streams)

    def component(self, name: str) -> ComponentSpec:
        """The spec for one component (raises on unknown names)."""
        try:
            return self._components[name]
        except KeyError:
            raise TopologyError(f"unknown component {name!r}") from None

    def parallelism(self, name: str) -> int:
        """Shorthand for ``component(name).parallelism``."""
        return self.component(name).parallelism

    def spouts(self) -> list[ComponentSpec]:
        """All source components, in insertion order."""
        return [c for c in self._components.values() if c.is_spout]

    def bolts(self) -> list[ComponentSpec]:
        """All processing components, in insertion order."""
        return [c for c in self._components.values() if not c.is_spout]

    def sinks(self) -> list[ComponentSpec]:
        """Components with no outgoing streams."""
        return [
            c for c in self._components.values() if not self._out[c.name]
        ]

    def outputs(self, name: str) -> list[Stream]:
        """Streams leaving a component."""
        self.component(name)
        return list(self._out[name])

    def inputs(self, name: str) -> list[Stream]:
        """Streams arriving at a component."""
        self.component(name)
        return list(self._in[name])

    def topological_order(self) -> list[ComponentSpec]:
        """Components ordered so every stream goes forward."""
        in_degree = {name: len(self._in[name]) for name in self._components}
        ready = [name for name, deg in in_degree.items() if deg == 0]
        order: list[ComponentSpec] = []
        while ready:
            name = ready.pop(0)
            order.append(self._components[name])
            for stream in self._out[name]:
                in_degree[stream.destination] -= 1
                if in_degree[stream.destination] == 0:
                    ready.append(stream.destination)
        return order

    def total_instances(self) -> int:
        """Sum of parallelisms over all components."""
        return sum(c.parallelism for c in self._components.values())

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_parallelism(self, changes: Mapping[str, int]) -> "LogicalTopology":
        """A copy of this topology with some components' parallelism changed.

        This is the logical half of a ``heron update``: the model tier
        rescales a calibration to it for a dry run, and a deploy packs it
        and hands both plans to ``TopologyTracker.update``.
        """
        components = dict(self._components)
        for name, parallelism in changes.items():
            if name not in components:
                raise TopologyError(f"unknown component {name!r}")
            components[name] = replace(components[name], parallelism=parallelism)
        return LogicalTopology(self.name, components, self._streams)

    def __repr__(self) -> str:
        return (
            f"LogicalTopology({self.name!r}, components={len(self._components)}, "
            f"streams={len(self._streams)})"
        )


class TopologyBuilder:
    """Fluent builder for :class:`LogicalTopology`.

    Example
    -------
    >>> builder = TopologyBuilder("wc")
    >>> builder.add_spout("sentence-spout", parallelism=8)
    >>> builder.add_bolt("splitter", parallelism=3)
    >>> builder.add_bolt("counter", parallelism=3)
    >>> builder.connect("sentence-spout", "splitter", ShuffleGrouping())
    >>> builder.connect("splitter", "counter", fields_grouping)
    >>> topology = builder.build()
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._components: dict[str, ComponentSpec] = {}
        self._streams: list[Stream] = []

    def _add(self, name: str, kind: str, parallelism: int) -> "TopologyBuilder":
        if name in self._components:
            raise TopologyError(f"component {name!r} already defined")
        self._components[name] = ComponentSpec(name, kind, parallelism)
        return self

    def add_spout(self, name: str, parallelism: int) -> "TopologyBuilder":
        """Declare a source component."""
        return self._add(name, SPOUT, parallelism)

    def add_bolt(self, name: str, parallelism: int) -> "TopologyBuilder":
        """Declare a processing component."""
        return self._add(name, BOLT, parallelism)

    def connect(
        self,
        source: str,
        destination: str,
        grouping: Grouping,
        stream: str = DEFAULT_STREAM,
    ) -> "TopologyBuilder":
        """Add a stream between two declared components."""
        for endpoint in (source, destination):
            if endpoint not in self._components:
                raise TopologyError(
                    f"connect references undeclared component {endpoint!r}"
                )
        self._streams.append(Stream(source, destination, grouping, stream))
        return self

    def build(self) -> LogicalTopology:
        """Validate and return the immutable topology."""
        return LogicalTopology(self._name, self._components, self._streams)
