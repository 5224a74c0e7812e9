"""Structure guard: one stats surface.

Every counter under ``src/repro`` lives in a
:class:`repro.telemetry.Telemetry` registry, and every stats document is
a view over a snapshot of one, so no component keeps a ``stats()`` of
its own or a bare counter beside the registry.
"""

from __future__ import annotations

import ast

from tests.source_index import code_lines

#: ``benchmarks/ledger/layers.py`` calls these two by name, and the
#: ledger is frozen until its re-baseline; both only read the registry.
LEDGER_FROZEN_VIEWS = {
    "serving/layer.py:ServingLayer.stats",
    "sweep/engine.py:PlanSweepEngine.stats",
}
#: Counters the registry replaced.
RETIRED = {
    "frames_by_head", "frames_decoded", "_SUMMED_STATS", "_TOTALS", "_proxied",
    "_unavailable",
}


def test_no_component_defines_stats_but_the_frozen_views(src_index):
    assert {
        function.name for function in src_index.functions()
        if function.node.name == "stats"
    } == LEDGER_FROZEN_VIEWS


def test_the_frozen_views_read_the_registry(src_index):
    functions = {function.name: function for function in src_index.functions()}
    for name in LEDGER_FROZEN_VIEWS:
        assert "self.telemetry.snapshot(" in functions[name].text, name


def test_no_retired_counter_is_kept(src_index):
    assert [
        (path, node.lineno)
        for path, file in src_index.items()
        for node in ast.walk(file.tree)
        if (isinstance(node, ast.Attribute) and node.attr in RETIRED)
        or (isinstance(node, ast.Name) and node.id in RETIRED)
    ] == []


def test_code_lines_leave_out_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        '"""Module\ndocstring."""\n\n# a comment\n'
        'def f(x):\n    """One line."""\n    return (x +  # trailing\n'
        '            1)\n\nTEXT = """two\nlines"""\n'
    )
    assert code_lines(path) == 5  # def, return, its continuation, TEXT x2
