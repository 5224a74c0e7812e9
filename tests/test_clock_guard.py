"""Structure guard: one clock.

Every time read, sleep and timed wait under ``src/repro`` goes through
:mod:`repro.clock`, so a component cannot read one clock and wait on
another.
"""

from __future__ import annotations

import ast


def _spent_time(node: ast.AST) -> str | None:
    """What ``node`` does with the stdlib's clock, if anything."""
    if isinstance(node, ast.ImportFrom) and node.module == "time":
        return "from time import"
    if isinstance(node, ast.Import) and "time" in {a.name for a in node.names}:
        return "import time"
    if isinstance(node, ast.Attribute) and ast.unparse(node) in (
        "time.monotonic", "time.time", "time.sleep", "time.perf_counter"
    ):
        return ast.unparse(node)
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return None
    # ``Event.wait(t)``, ``Condition.wait(t)`` and ``wait_for`` go through
    # ``Clock.wait`` / ``Clock.wait_for``; a child process's ``wait`` stays.
    receiver = ast.unparse(node.func.value)
    timed = node.func.attr == "wait_for" or (
        node.func.attr == "wait" and (node.args or node.keywords)
    )
    if timed and not receiver.endswith(("SYSTEM_CLOCK", "clock", "process")):
        return f"{receiver}.{node.func.attr}(...)"
    return None


def test_only_the_clock_reads_sleeps_or_waits_with_a_timeout(src_index):
    offenders = {
        path: found
        for path, file in src_index.items()
        if path != "clock.py"
        and (found := [s for n in ast.walk(file.tree) if (s := _spent_time(n))])
    }
    assert offenders == {}


def test_no_clock_is_a_bare_callable_and_nothing_takes_a_sleep(src_index):
    assert [p for p, f in src_index.items() if "Callable[[], float]" in f.source] == []
    assert [
        function.name
        for function in src_index.functions()
        for arg in ast.walk(function.node.args)
        if isinstance(arg, ast.arg) and arg.arg == "sleep"
    ] == []


def test_the_deadline_check_still_yields_the_interpreter(src_index):
    """A scheduling point, not a time read: it stays where it is."""
    (check,) = [
        function
        for function in src_index["durability/deadline.py"].functions
        if function.node.name == "check_deadline"
    ]
    assert "_yield_interpreter()" in check.text
