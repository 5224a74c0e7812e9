"""Structure guard: one chain, one memo, one encoding of a computed answer.

Every prediction used to rebuild and re-validate a ``LogicalTopology``,
enumerate its source→sink paths and rescale its component models — per
model, per request — and the sweep kept three more ``(component,
parallelism)`` memos of its own; a computed answer was encoded, decoded
and encoded again on its way to the socket.  These checks read the source
so none of it can quietly come back.
"""

from __future__ import annotations

import ast

MODEL_TIER = ("core/", "sweep/")


def _in_model_tier(names: list[str]) -> list[str]:
    return [name for name in names if name.startswith(MODEL_TIER)]


def _receivers(src_index, method: str) -> dict[str, set[str]]:
    """``"file:function" -> {receiver source text}`` of every
    ``<receiver>.<method>(...)`` call under the model tier."""
    found: dict[str, set[str]] = {}
    for function in src_index.functions():
        if not function.name.startswith(MODEL_TIER):
            continue
        for node in ast.walk(function.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == method
            ):
                found.setdefault(function.name, set()).add(ast.unparse(node.func.value))
    return found


def test_paths_are_enumerated_where_a_calibration_is_compiled(src_index):
    assert src_index.functions_containing("source_sink_paths(") == [
        "core/topology_model.py:__init__",  # the compile site
        "graph/topology_graph.py:source_sink_paths",
        "graph/topology_graph.py:path_count",
    ]
    # ... and a compiled model is built where a topology is calibrated —
    # or, once, by the latency experiment from the simulator's known
    # capacities (no calibration, no request).
    assert src_index.functions_containing("TopologyModel(") == [
        "core/performance_models.py:calibrate_topology",
        "experiments/quality.py:latency",
    ]


def test_no_prediction_rebuilds_a_topology_or_rescales_a_component(src_index):
    assert _receivers(src_index, "with_parallelism") == {
        # The plan overlay: shares the compiled structure and the memo.
        "core/performance_models.py:PerformanceModel.predict": {"base"},
        "sweep/artifact.py:CalibrationArtifact.model_for_plan": {"self.base"},
        # The memo: the one place a ``ComponentModel`` is rescaled.
        "core/topology_model.py:TopologyModel.rescaled": {"calibrated"},
        # A ``LogicalTopology``, to *simulate* a plan (pool validation).
        "sweep/pool.py:_validate_one": {"spec.topology"},
    }
    assert _in_model_tier(src_index.functions_containing("LogicalTopology(")) == []
    assert src_index.functions_containing("grouping_input_shares(") == [
        "core/performance_models.py:calibrate_topology",
        "core/topology_model.py:grouping_input_shares",
        "core/topology_model.py:rescaled",
    ]


def test_one_function_holds_the_rescaled_component_memo(src_index):
    assert _in_model_tier(src_index.functions_containing("._memo")) == [
        "core/topology_model.py:__init__",  # made, empty
        "core/topology_model.py:rescaled",
    ]
    # What used to be three more memos draws from it.
    assert _in_model_tier(src_index.functions_containing(".rescaled(")) == [
        "core/topology_model.py:with_parallelism",
        "sweep/kernel.py:groups_for",
        "sweep/kernel.py:estimate_plan_cpu",
    ]
    for spelling in ("_share_cache", "plan_shares", "_models: dict[tuple"):
        assert src_index.functions_containing(spelling) == []


def test_the_chain_is_walked_by_one_function_and_the_kernel(src_index):
    """``SP_k / L_k`` (Eq. 13) is spelled in the scalar pass and in the
    independent batch kernel held against it, nowhere else."""
    assert src_index.functions_containing("/ factor") == [
        "core/topology_model.py:_chain",
        "sweep/kernel.py:evaluate_plans",
    ]
    for gone in ("critical_path_output(", "path_bottleneck(", "apply_parallelisms("):
        assert src_index.functions_containing(gone) == []


def test_a_computed_answer_is_decoded_only_for_in_process_callers(src_index):
    layer = src_index["serving/layer.py"]
    assert [
        function.name for function in layer.functions
        if "json.loads(" in function.text
    ] == ["serving/layer.py:ServingLayer.execute"]
    assert [
        function.name for function in layer.functions
        if "json.dumps(" in function.text
    ] == ["serving/layer.py:ServingLayer._compute_and_store"]
