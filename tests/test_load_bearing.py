"""Structure guard: everything under ``src/repro`` is load-bearing.

A definition (function, class, method) is *reachable* when its name is
used — as a name, an attribute or an identifier-shaped string (the
``getattr(client, operation)`` dispatch in ``ClusterClient._to_owner``) —
by a root or by another reachable definition and, for a method, when its
class is reachable too.  The roots are what the product runs: every
module's top-level code under ``src/repro``, ``benchmarks/`` (the frozen
ledger included) and ``examples/``.  Imports, ``__all__`` and
``__init__`` re-exports — a package's lazy export table included — are
not a use.  A dunder method runs whenever its class is used, and so does
a method of an ``asyncio.Protocol`` subclass named for a callback the
event loop makes (``data_received``, ``connection_lost``, …): both are
the class's body.  Whatever the roots cannot reach
is deleted together with the tests that test *it*, or is listed below
because a test pins something live through it — never moved into
``tests/`` and never "wired in" to pass this check.
"""

from __future__ import annotations

import ast
import asyncio
import re

import pytest

from tests.source_index import ROOT, is_lazy_export_table

#: ``"module:qualname" -> what live behaviour a test observes through it``.
TEST_SUPPORT: dict[str, str] = {
    # The golden-trace recorder: what the 74 simulator fixtures replay.
    "workloads/trace.py:workload_trace": "golden traces: same seed, same bytes",
    "workloads/trace.py:config_trace": "engine-config goldens replay through it",
    "workloads/trace.py:golden_trace_payload": "the committed fixture format",
    # Simulator inspection hooks: engine state no metric reports.
    "heron/simulation.py:HeronSimulation.queue_tuples": (
        "tuple conservation and watermark bounds are checked on live queues"
    ),
    "heron/simulation.py:HeronSimulation.spout_backlog": (
        "conservation: offered = emitted + backlog"
    ),
    "heron/simulation.py:HeronSimulation.backpressure_components": (
        "names which bolt raised backpressure, not only for how long"
    ),
    "heron/simulation.py:HeronSimulation.instance_down": (
        "fault injector and minute close: crash and restore take effect"
    ),
    "heron/simulation.py:HeronSimulation.instance_capacity_factors": (
        "fault injector: a straggler window ends at factor 1.0"
    ),
    # The YAML dump: only its inverse is product code.
    "heron/topology_yaml.py:dump_topology_yaml": (
        "parse(dump(x)) == x pins the loader over every generated shape"
    ),
    "heron/topology_yaml.py:dump_topology_document": "body of dump_topology_yaml",
    "heron/topology_yaml.py:_dump_connection": "body of dump_topology_yaml",
    # A second packing algorithm, as input variety for the plan analysis.
    "heron/packing.py:FirstFitDecreasingPacking": (
        "analyse_plan is costed on plans round robin cannot produce"
    ),
    "heron/packing.py:ContainerPlan.required_resources": (
        "sums a container's demand: every packed plan fits its containers"
    ),
    "heron/packing.py:Resources.plus": "body of required_resources",
    "heron/packing.py:PackingPlan.all_instances": (
        "every packer places each instance exactly once"
    ),
    # Store and series observers.
    "timeseries/series.py:TimeSeries.to_pairs": (
        "series are compared as (timestamp, value) lists across the suite"
    ),
    "timeseries/store.py:MetricsStore.metric_names": (
        "recovery replays exactly the series that were journaled"
    ),
    "timeseries/store.py:MetricsStore.latest_timestamp": (
        "batch == sequential writes compares it; probes write just past it"
    ),
    # Generated workloads, rescaled.
    "workloads/generator.py:GeneratedWorkload.with_parallelisms": (
        "calibration cache is driven through redeploys of generated shapes"
    ),
    "workloads/generator.py:GeneratedWorkload.build_fn": (
        "pool validation of sweep plans on generated topologies"
    ),
    # Graph observers.
    "graph/property_graph.py:PropertyGraph.out_edges": (
        "logical_graph labels edges by grouping; one edge per label"
    ),
    "graph/topology_graph.py:path_count": (
        "source_sink_paths x parallelism equals the paper's Fig. 1 count"
    ),
}

IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: What an event loop calls on a protocol object, by name.
PROTOCOL_CALLBACKS = frozenset(
    name
    for base in (asyncio.BaseProtocol, asyncio.Protocol)
    for name in vars(base)
    if not name.startswith("_")
)


def _names(*nodes: ast.AST) -> set[str]:
    found = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if IDENTIFIER.match(node.value):
                found.add(node.value)
    return found


def _is_export(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _is_protocol(node: ast.ClassDef) -> bool:
    return any(
        isinstance(base, ast.Attribute) and base.attr == "Protocol"
        and isinstance(base.value, ast.Name) and base.value.id == "asyncio"
        for base in node.bases
    )


def _scan(body, prefix, parent, definitions, called=frozenset()) -> set[str]:
    """Names ``body`` uses itself; its named children land in
    ``definitions`` as ``key -> (name, parent key, names it uses)``.
    Dunder methods run whenever their class is used, and the ``called``
    ones (a protocol's event-loop callbacks) too: they are body."""
    used = set()
    for stmt in body:
        if (
            isinstance(stmt, DEFINITIONS)
            and not re.match(r"__\w+__\Z", stmt.name)
            and stmt.name not in called
        ):
            key = prefix + stmt.name
            if isinstance(stmt, ast.ClassDef):
                callbacks = PROTOCOL_CALLBACKS if _is_protocol(stmt) else ()
                inner = _scan(stmt.body, f"{key}.", key, definitions, callbacks)
                inner |= _names(*stmt.bases, *stmt.keywords, *stmt.decorator_list)
            else:
                inner = _names(stmt)
            definitions[key] = (stmt.name, parent, inner)
        elif is_lazy_export_table(stmt):
            used |= _names(stmt.value.func)  # the helper runs; the table re-exports
        elif not _is_export(stmt):
            used |= _names(stmt)
    return used


def _unreachable(definitions, roots) -> set[str]:
    """Outermost definitions no root reaches (a dead class is one entry)."""
    names, live, grew = set(roots), {None}, True  # a module's parent is None
    while grew:
        grew = False
        for key, (name, parent, inner) in definitions.items():
            if key not in live and name in names and parent in live:
                live.add(key)
                names |= inner
                grew = True
    return {
        key
        for key, (_, parent, _) in definitions.items()
        if key not in live and parent in live
    }


def _names_under(*directories: str) -> set[str]:
    return {
        name
        for directory in directories
        for path in sorted((ROOT / directory).rglob("*.py"))
        for name in _names(ast.parse(path.read_text("utf8")))
    }


def test_every_definition_is_reachable_or_named_test_support(src_index):
    definitions: dict[str, tuple] = {}
    roots = _names_under("benchmarks", "examples")
    for path, file in src_index.items():
        roots |= _scan(file.tree.body, f"{path}:", None, definitions)
    # Dead code fails the first comparison; so does an entry that has
    # been deleted or has gained a caller in the product.
    assert sorted(_unreachable(definitions, roots)) == sorted(TEST_SUPPORT)
    assert len(TEST_SUPPORT) <= 30 and all(TEST_SUPPORT.values())
    # ... and an excuse no test uses any more fails the second.
    assert sorted(_unreachable(definitions, roots | _names_under("tests"))) == []


def test_a_lazy_export_table_is_a_re_export_not_a_use():
    """The names a package ``__init__`` resolves on first use are strings
    in a table: counted as uses they would keep alive whatever callers
    only import from the package in tests."""
    package = ast.parse(
        "from repro._lazy import lazy_exports\n"
        "__getattr__, __all__ = lazy_exports(\n"
        '    __name__, {"trace": ("workload_trace", "config_trace")}\n'
        ")\n"
    )
    assert _scan(package.body, "workloads/__init__.py:", None, {}) == {
        "lazy_exports"
    }


def test_event_loop_callbacks_are_a_protocols_body():
    """asyncio calls ``data_received`` by name; what it calls is live,
    and a helper nothing calls is still dead."""
    module = ast.parse(
        "import asyncio\n"
        "class Conn(asyncio.Protocol):\n"
        "    def data_received(self, data):\n"
        "        self._framed(data)\n"
        "    def _framed(self, data):\n"
        "        pass\n"
        "    def _unused(self):\n"
        "        pass\n"
        "class NotOne:\n"
        "    def data_received(self, data):\n"
        "        pass\n"
        "Conn()\n"
        "NotOne()\n"
    )
    definitions: dict[str, tuple] = {}
    roots = _scan(module.body, "m.py:", None, definitions)
    assert _unreachable(definitions, roots) == {
        "m.py:Conn._unused", "m.py:NotOne.data_received",
    }


def test_every_declared_dependency_is_imported(src_index):
    tomllib = pytest.importorskip("tomllib")  # 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf8"))["project"]
    imported = {
        (alias.name if isinstance(node, ast.Import) else node.module or "").split(".")[0]
        for file in src_index.values()
        for node in ast.walk(file.tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    distribution_imports_as = {"PyYAML": "yaml"}
    declared = [re.match(r"[\w.-]+", spec).group() for spec in project["dependencies"]]
    unused = [d for d in declared if distribution_imports_as.get(d, d) not in imported]
    assert unused == []
