"""Structure guard: what the listener's event-loop thread can reach.

The listener offers each request to ``CaladriusApp.handle_nonblocking``
on its loop thread before handing it to the worker pool.  That call and
``handle`` share every line of routing and validation and part ways in
one place — ``_serve`` asks the serving layer for ``cached`` instead of
``execute`` — so the guard reads the source (AST, typed by what each
``__init__`` assigns and what each parameter is annotated as) for what
``cached`` can call, and for the one door to the pool.
``tests/api/test_inline_answers.py`` watches the same rule at run time.
"""

from __future__ import annotations

import ast
import functools

#: Where the loop thread must never arrive: the disk, the journal, the
#: admission gate, another request's computation, a model.
FORBIDDEN = {"fsync", "append_bodies", "scheduler.run", "flight.do", "calibrate_topology"}
ATTEMPT = "serving/layer.py:ServingLayer.cached"


def _spellings(func: ast.AST) -> set[str]:
    """``self.scheduler.run(...)`` is called ``run`` and ``scheduler.run``."""
    if isinstance(func, ast.Name):
        return {func.id}
    if not isinstance(func, ast.Attribute):
        return set()
    receiver = func.value
    held = receiver.attr if isinstance(receiver, ast.Attribute) else None
    return {func.attr, f"{held}.{func.attr}"} if held else {func.attr}


class _Resolver:
    """Resolves a call to the function under ``src/repro`` it names."""

    def __init__(self, src_index) -> None:
        self.functions = {f.name: f for f in src_index.functions()}
        self.classes: dict[str, str] = {}  # class name -> "file:Class"
        self.module_level: dict[str, str] = {}  # function name -> key
        for rel, file in src_index.items():
            for node in file.tree.body:
                if isinstance(node, ast.ClassDef):
                    self.classes[node.name] = f"{rel}:{node.name}"
                elif isinstance(node, ast.FunctionDef):
                    self.module_level[node.name] = f"{rel}:{node.name}"
        # "file:Class" -> {attribute: class name}, from ``self.x = Class(...)``.
        self.attributes: dict[str, dict[str, str]] = {}
        for key, function in self.functions.items():
            if not key.endswith(".__init__"):
                continue
            owner = self.attributes.setdefault(key[: -len(".__init__")], {})
            annotated = self._annotated(function.node)
            for node in ast.walk(function.node):
                if not isinstance(node, ast.Assign):
                    continue
                value, held = node.value, None
                if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                    held = value.func.id  # self.cache = ResultCache(...)
                elif isinstance(value, ast.Name):
                    held = annotated.get(value.id)  # self.store = store
                if held in self.classes:
                    for target in node.targets:
                        if isinstance(target, ast.Attribute):
                            owner[target.attr] = held

    @staticmethod
    def _annotated(node: ast.FunctionDef) -> dict[str, str]:
        return {
            argument.arg: argument.annotation.id
            for argument in node.args.args
            if isinstance(argument.annotation, ast.Name)
        }

    def callees(self, key: str) -> tuple[set[str], set[str]]:
        """``(functions under src/ the body calls, every dotted call name)``."""
        function = self.functions[key]
        owner = key.rsplit(".", 1)[0] if "." in key.split(":")[1] else None
        annotated = self._annotated(function.node)
        found, names = set(), set()
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            names |= _spellings(func)
            target = None
            if isinstance(func, ast.Name):
                target = self.module_level.get(func.id)
            elif isinstance(func, ast.Attribute):
                receiver = func.value
                if isinstance(receiver, ast.Name) and receiver.id == "self":
                    target = f"{owner}.{func.attr}"
                elif isinstance(receiver, ast.Name) and receiver.id in annotated:
                    target = f"{self.classes.get(annotated[receiver.id])}.{func.attr}"
                elif (
                    isinstance(receiver, ast.Attribute)
                    and isinstance(receiver.value, ast.Name)
                    and receiver.value.id == "self"
                ):
                    held = self.attributes.get(owner or "", {}).get(receiver.attr)
                    target = f"{self.classes.get(held)}.{func.attr}"
            if target in self.functions:
                found.add(target)
        return found, names

    @functools.cache
    def reach(self, start: str) -> tuple[frozenset[str], frozenset[str]]:
        seen: set[str] = set()
        names: set[str] = set()
        todo = [start]
        while todo:
            key = todo.pop()
            if key in seen:
                continue
            seen.add(key)
            found, called = self.callees(key)
            names |= called
            todo.extend(found)
        return frozenset(seen), frozenset(names)


def test_one_function_hands_work_to_the_pool(src_index):
    callers = [
        function.name
        for function in src_index.functions()
        if "run_in_executor(" in function.text
    ]
    assert callers == ["api/server.py:CaladriusServer._run"]


def test_the_attempt_reaches_nothing_that_blocks(src_index):
    resolver = _Resolver(src_index)
    functions, names = resolver.reach(ATTEMPT)
    assert not names & FORBIDDEN
    # It is a lookup: the key, the cache, the counters, the popularity
    # table, and the two version reads the key is made of.
    assert functions == {
        ATTEMPT,
        "serving/layer.py:ServingLayer._key",
        "serving/cache.py:ResultCache.get",
        "serving/cache.py:ResultCache._drop_locked",
        "serving/precompute.py:WarmCachePrecomputer.record",
        "serving/fingerprint.py:RequestDescriptor.cache_key",
        "serving/fingerprint.py:fingerprint",
        "serving/fingerprint.py:canonical_json",
        "heron/tracker.py:TopologyTracker.revision_of",
        "heron/tracker.py:TopologyTracker.get",
        "heron/tracker.py:TopologyTracker._key",
        "timeseries/store.py:MetricsStore.data_version",
    }
    # The version read takes no lock (a journaling store holds its own
    # across fsync).
    version = resolver.functions["timeseries/store.py:MetricsStore.data_version"]
    assert not any(isinstance(n, ast.With) for n in ast.walk(version.node))


def test_the_resolver_is_not_blind(src_index):
    """The same walk from ``execute`` does arrive where the attempt must not."""
    _, names = _Resolver(src_index).reach("serving/layer.py:ServingLayer.execute")
    assert {"scheduler.run", "flight.do"} <= names
    _, names = _Resolver(src_index).reach(
        "durability/store.py:DurableMetricsStore._journal"
    )
    assert {"append_bodies", "fsync"} <= names


def test_the_two_entry_points_part_ways_in_one_function(src_index):
    """``handle`` and ``handle_nonblocking`` are one body with one flag;
    only ``_serve`` reads it to choose what to ask of the serving layer,
    and no handler is written twice."""
    app = src_index["api/app.py"]
    by_name = {f.name.split(".")[-1]: f for f in app.functions}
    for entry in ("handle", "handle_nonblocking"):
        calls = [
            n.func.attr for n in ast.walk(by_name[entry].node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        ]
        assert calls == ["_handle"], entry
    asking = [
        f.name for f in app.functions
        if ".cached(" in f.text or ".execute(" in f.text
    ]
    assert asking == ["api/app.py:CaladriusApp._serve"]
    assert app.source.count("def _route(") == 1
