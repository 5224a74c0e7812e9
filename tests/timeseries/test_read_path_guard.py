"""Structure guards: one filtered walk, one complete-minute rule, one read
of a topology per calibration.

``MetricsStore.query`` used to be a walk of every series, the API tier
spelled "filter ⊆ tags" a second time, and a calibration scanned the
store once per component, metric and stream — with the sweep artifact
reading it again, later, for its CPU fits.  These checks read the source
so the scans cannot quietly come back.
"""

from __future__ import annotations

import ast

#: Where a model may read metrics: everything under these prefixes goes
#: through ``topology_frame`` (or ``degraded_aggregate``, the one
#: per-call read ``component_observations`` still makes).
MODEL_TIER = ("core/", "sweep/", "faults/health.py")


def test_one_function_matches_series_against_a_tag_filter(src_index):
    assert src_index.functions_containing(".matches(") == [
        "timeseries/store.py:query"
    ]
    # ... and "filter is a subset of the tags" is spelled once, there.
    subset_tests = {
        name
        for spelling in ("in tags for item in", "tags.get(k) == v")
        for name in src_index.functions_containing(spelling)
    }
    assert subset_tests == {"timeseries/store.py:matches"}


def test_query_reads_the_index_when_the_filter_names_a_topology(src_index):
    query = next(
        function
        for function in src_index["timeseries/store.py"].functions
        if function.name.endswith("MetricsStore.query")
    )
    assert "_by_topology.get((name, topology)" in query.text
    assert "self._series" in query.text  # no topology: every series


def test_the_complete_minute_rule_has_one_definition(src_index):
    assert src_index.functions_containing("== n_series") == [
        "timeseries/store.py:complete_minutes"
    ]
    callers = src_index.functions_containing("complete_minutes(")
    assert callers == [
        "timeseries/store.py:complete_minutes",
        "timeseries/store.py:complete",
        "timeseries/store.py:aggregate_complete",
    ]


def test_model_tier_reads_go_through_the_frame(src_index):
    def in_model_tier(name: str) -> bool:
        return name.startswith(MODEL_TIER)

    assert [
        name for name in src_index.functions_containing(".query(")
        if in_model_tier(name)
    ] == []
    assert [
        name for name in src_index.functions_containing(".aggregate_complete(")
        if in_model_tier(name)
    ] == ["core/calibration.py:degraded_aggregate"]
    assert [
        name for name in src_index.functions_containing(".topology_frame(")
    ] == [
        "core/performance_models.py:calibrate_topology",
        "core/traffic_models.py:_spout_series",
        "faults/health.py:assess_topology_metrics",
    ]
    # ``store.keys`` + a scan per instance was the per-instance forecast.
    assert [
        name for name in src_index.functions_containing(".keys(MetricNames")
        if in_model_tier(name)
    ] == []


def test_from_calibration_takes_no_store(src_index):
    function = next(
        function
        for function in src_index["sweep/artifact.py"].functions
        if function.name.endswith("CalibrationArtifact.from_calibration")
    )
    assert isinstance(function.node, ast.FunctionDef)
    parameters = [argument.arg for argument in function.node.args.args]
    assert parameters == ["cls", "calibration", "fit_cpu"]
    assert "store" not in function.text.split('"""')[-1]
    assert "_fit_cpu_models" not in src_index["sweep/artifact.py"].source


def test_series_are_created_and_indexed_in_one_place(src_index):
    # ``apply_sample_batch``'s body under the lock.
    assert src_index.functions_containing("_SeriesBuffer()") == [
        "timeseries/store.py:_apply_entries"
    ]
    touching = [
        name
        for name in src_index.functions_containing("_by_topology")
        if name.startswith("timeseries/")
    ]
    assert touching == [
        "timeseries/store.py:__init__",
        "timeseries/store.py:_apply_entries",
        "timeseries/store.py:query",
        "timeseries/store.py:topology_frame",
        "timeseries/store.py:clear",
    ]
