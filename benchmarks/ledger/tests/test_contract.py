"""``BENCHMARK.json`` agrees with the code and with the driver's limits."""

import json
import re

from benchmarks.ledger import e2e, layers
from benchmarks.ledger.document import BENCHMARK_JSON, load_benchmark
from benchmarks.ledger.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_shape_and_limits():
    benchmark = load_benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK_JSON.stat().st_size <= 64 * 1024
    assert benchmark["paths"] == ["benchmarks/ledger"]
    assert benchmark["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert isinstance(benchmark["run_seconds"], int) and 1 <= benchmark["run_seconds"] <= 60
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert 1 <= len(benchmark["end_to_end"]) <= 16
    assert 1 <= len(benchmark["per_layer"]) <= 128
    names = (
        [w["name"] for w in benchmark["workloads"]]
        + [m["name"] for m in benchmark["end_to_end"]]
        + [m["name"] for m in benchmark["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in benchmark["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in benchmark["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in benchmark["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])


def test_agrees_with_the_code():
    benchmark = load_benchmark()
    assert [(w["name"], w["why"]) for w in benchmark["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    for metric in benchmark["end_to_end"]:
        assert e2e.END_TO_END[metric["name"]] == (metric["unit"], metric["better"])
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.PER_LAYER.items()
    ]
    assert json.loads(BENCHMARK_JSON.read_text()) == benchmark
