"""Structure guards: one simulator engine, one per-minute series list.

The simulator's observable contract — which series every instance
reports each minute, in which order — used to be spelled out by a second,
scalar engine kept beside the live one and, inside the live one, by three
hand-written copies of the list (an accumulator hand-over, a metrics
manager's buffer flush and a prepared-batch plan).  These checks read the
source so the duplicates cannot quietly come back.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from tests.durability.test_write_path_guard import MUTATIONS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
ENGINE = SRC / "heron" / "simulation.py"

#: ``MetricsStore`` methods that add or drop samples (resolving a
#: prepared batch does neither).
STORE_WRITES = MUTATIONS - {"make_minute_batch"}


def _sources() -> dict[Path, str]:
    return {path: path.read_text("utf8") for path in sorted(SRC.rglob("*.py"))}


def test_one_simulator_engine():
    defining = [
        str(path.relative_to(SRC))
        for path, source in _sources().items()
        if re.search(r"^class HeronSimulation\b", source, re.MULTILINE)
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


def test_retired_accumulation_api_is_gone():
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
        (str(path.relative_to(SRC)), name)
        for path, source in _sources().items()
        for name in retired
        if name in source
    ]
    assert offenders == []


def test_one_function_lists_the_per_minute_series():
    """Only the layout compiler names a reported series; the minute
    close and everything else in the engine go through its table."""
    source = ENGINE.read_text("utf8")
    naming = [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        and "MetricNames." in ast.get_source_segment(source, node)
    ]
    assert naming == ["_compile_minute_layout"]


def test_the_engine_writes_through_two_store_calls():
    """Keyed and prepared, both from the minute close."""
    source = ENGINE.read_text("utf8")
    writes = sorted(
        call
        for call in re.findall(r"\bstore\.(\w+)\(", source)
        if call in STORE_WRITES
    )
    assert writes == ["append_minute_batch", "apply_sample_batch"]
    closing = [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        and re.search(
            r"\bstore\.(apply_sample_batch|append_minute_batch)\(",
            ast.get_source_segment(source, node),
        )
    ]
    assert closing == ["_close_minute"]
