"""Structure guards: one simulator engine, one per-minute series list.

The simulator's observable contract — which series every instance
reports each minute, in which order — used to be spelled out by a second,
scalar engine kept beside the live one and, inside the live one, by three
hand-written copies of the list (an accumulator hand-over, a metrics
manager's buffer flush and a prepared-batch plan).  These checks read the
source so the duplicates cannot quietly come back.
"""

from __future__ import annotations

import re

from tests.durability.test_write_path_guard import MUTATIONS
from tests.source_index import ROOT

ENGINE = "heron/simulation.py"

#: ``MetricsStore`` methods that add or drop samples (resolving a
#: prepared batch does neither).
STORE_WRITES = MUTATIONS - {"make_minute_batch"}


def test_one_simulator_engine(src_index):
    defining = [
        path
        for path, file in src_index.items()
        if re.search(r"^class HeronSimulation\b", file.source, re.MULTILINE)
    ]
    assert defining == ["heron/simulation.py"]


def test_the_retired_engine_is_named_nowhere():
    retired = "simulation" + "_legacy"  # spelled apart: this file is searched too
    searched = [
        *(ROOT / "src").rglob("*.py"),
        *(ROOT / "tests").rglob("*.py"),
        *(ROOT / "tests").rglob("*.json"),
        *(ROOT / "benchmarks").glob("bench_*.py"),
        *(ROOT / "docs").rglob("*"),
        *(ROOT / ".github").rglob("*"),
    ]
    offenders = [
        str(path.relative_to(ROOT))
        for path in searched
        if path.is_file() and retired in path.read_text("utf8", errors="replace")
    ]
    assert offenders == []


def test_retired_accumulation_api_is_gone(src_index):
    retired = (
        "add_counter",
        "add_gauge",
        "add_gauge_integral",
        "add_backpressure",
        "add_backpressure_ms",
        "register_instance",
        "advance_batched",
        "_flush_minute_accumulators",
        "_maybe_build_flush_plan",
        "_MinuteBuffer",
    )
    offenders = [
        (path, name)
        for path, file in src_index.items()
        for name in retired
        if name in file.source
    ]
    assert offenders == []


def test_one_function_lists_the_per_minute_series(src_index):
    """Only the layout compiler names a reported series; the minute
    close and everything else in the engine go through its table."""
    naming = [
        function.node.name
        for function in src_index[ENGINE].functions
        if "MetricNames." in function.text
    ]
    assert naming == ["_compile_minute_layout"]


def test_the_engine_writes_through_two_store_calls(src_index):
    """Keyed and prepared, both from the minute close."""
    source = src_index[ENGINE].source
    writes = sorted(
        call
        for call in re.findall(r"\bstore\.(\w+)\(", source)
        if call in STORE_WRITES
    )
    assert writes == ["append_minute_batch", "apply_sample_batch"]
    closing = [
        function.node.name
        for function in src_index[ENGINE].functions
        if re.search(
            r"\bstore\.(apply_sample_batch|append_minute_batch)\(", function.text
        )
    ]
    assert closing == ["_close_minute"]
