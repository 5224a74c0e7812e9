"""Structure guard: one function turns a modelling request into a model run.

A fresh ask used to run a closure its validator built, while the re-warm
decoded the descriptor's parameters and dispatched a second time, through
a callback the app registered with the serving layer (``set_recompute``).
The two disagreed: a sweep's plan echoed in the order the client sent it
when fresh and in sorted-key order when re-warmed.  Now the descriptor is
the whole request and ``CaladriusApp._answer`` its one computation; these
checks read the source so a second path cannot quietly come back.
"""

from __future__ import annotations

import ast

#: ``<receiver>.<method>`` calls that run a model.
MODEL_CALLS = {
    ("registry", "traffic_model"),
    ("registry", "performance_model"),
    ("sweep_engine", "sweep"),
}


def _model_calls(node: ast.AST) -> set[tuple[str, str]]:
    found = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
            receiver = call.func.value
            name = getattr(receiver, "attr", getattr(receiver, "id", None))
            if (name, call.func.attr) in MODEL_CALLS:
                found.add((name, call.func.attr))
    return found


def test_one_function_in_the_app_runs_the_models(src_index):
    app = src_index["api/app.py"]
    callers = {
        function.name: calls
        for function in app.functions
        if (calls := _model_calls(function.node))
    }
    assert callers == {"api/app.py:CaladriusApp._answer": MODEL_CALLS}
    assert _model_calls(app.tree) == MODEL_CALLS  # none outside a function


def test_the_serving_layer_is_built_with_the_answer_function(src_index):
    layer = src_index["serving/layer.py"]
    names = {function.name.split(":")[1] for function in layer.functions}
    assert "ServingLayer.set_recompute" not in names
    assert "ServingLayer._recompute" not in names
    init = next(f for f in layer.functions if f.name.endswith("ServingLayer.__init__"))
    assert "answer" in [arg.arg for arg in init.node.args.args]
    # The re-warm is an ordinary ask of the table, and decodes nothing.
    rewarm = next(f for f in layer.functions if f.name.endswith(".precompute_now"))
    assert "self.payload(" in rewarm.text and "json.loads" not in rewarm.text


def test_no_second_dispatch_is_left_in_the_app(src_index):
    app = src_index["api/app.py"]
    names = {function.node.name for function in app.functions}
    gone = {
        "_recompute", "_traffic_uncached", "_performance_uncached",
        "_plan_sweep_uncached", "work", "scoped_work",
    }
    assert names.isdisjoint(gone)
    assert "_Plan" not in {
        target.id
        for node in app.tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
