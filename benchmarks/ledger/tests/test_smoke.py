"""Whole-benchmark smoke runs at 2% of the frozen sizes."""

import json
import subprocess
import sys
import time

from benchmarks.ledger import SCHEMA, layers
from benchmarks.ledger.child import ROOT, TMP_ROOT
from benchmarks.ledger.document import load_benchmark
from benchmarks.ledger.workloads import WORKLOADS

SCALE = 0.02


def _leftovers() -> list[str]:
    return [p.name for p in TMP_ROOT.iterdir()] if TMP_ROOT.exists() else []


def test_all_five_workloads_end_to_end_under_a_minute(tmp_path):
    out = tmp_path / "run.json"
    began = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "run", "--scale", str(SCALE),
         "--seconds", "0", "--seed", "11", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - began
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert elapsed < 60, f"smoke run took {elapsed:.1f}s"
    document = json.loads(out.read_text())
    assert document["schema"] == SCHEMA
    assert document["flush_policy"] == "always"
    assert document["seed"] == 11
    assert set(document["machine"]) == {
        "nproc", "cpus", "cpu", "python", "numpy", "platform",
    }
    assert len(document["machine"]["cpus"]) == 1  # the run pinned itself
    assert set(document["workloads"]) == {w.name for w in WORKLOADS}
    bounded = {m["name"] for m in load_benchmark()["end_to_end"]}
    for name, sections in document["workloads"].items():
        section = sections["end_to_end"]
        assert all(c["ok"] for c in section["checks"]), (name, section["checks"])
        assert not any(op["failed"] for op in section["operations"].values())
        missing = [
            m for m in bounded if section["metrics"][m]["value"] is None
        ]
        assert not missing, (name, missing)
        assert document["sizes"][name]["feed_instances"] >= 22
    assert not _leftovers()


def test_every_workload_traces_every_layer(tmp_path):
    expected = {m["name"] for m in load_benchmark()["per_layer"]}
    assert expected == set(layers.PER_LAYER)
    for workload in WORKLOADS:
        result = layers.trace_workload(workload.scaled(SCALE), 7, tmp_path)
        assert result.correct, (workload.name, result.checks)
        assert set(result.metrics) == expected
        assert all(
            isinstance(entry["value"], float) for entry in result.metrics.values()
        )
        trace = json.loads((tmp_path / f"trace_{workload.name}.json").read_text())
        assert trace["workload"] == workload.name
        names = {span["name"] for span in trace["spans"]}
        assert {"durability.store.ingest_frames", "durability.wal.append_bodies",
                "api.app.handle", "serving.layer.execute"} <= names
        parents = {span["id"]: span for span in trace["spans"]}
        nested = [s for s in trace["spans"] if s["name"] == "durability.wal.append_bodies"]
        assert all(
            parents[s["parent"]]["name"] == "durability.store.ingest_frames"
            for s in nested
        )
    assert not _leftovers()


def test_exact_counts_repeat_for_a_fixed_seed(tmp_path):
    workload = WORKLOADS[0].scaled(SCALE)
    first = layers.trace_workload(workload, 7, None)
    second = layers.trace_workload(workload, 7, None)
    for name in layers.EXACT:
        assert first.metrics[name]["value"] == second.metrics[name]["value"], name


def test_driver_entry_prints_one_json_result_line():
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "sim_heavy",
         "--seed", "3", "--seconds", "7", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = load_benchmark()["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for spec in wanted:
        entry = result["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"] and entry["value"] > 0
