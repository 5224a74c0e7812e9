"""Regenerate the simulator golden fixtures under ``tests/data``.

    PYTHONPATH=src python tests/data/regenerate_sim_goldens.py

The committed copies were produced by the **scalar engine** the
struct-of-arrays core replaced: they are the bit-identity contract the
one remaining engine is held to.  That engine is no longer in the tree;
it lives in history, in ``src/repro/heron/`` at commit ``094a9af`` (the
module suffixed ``_legacy``, deleted by the next commit), where the trace
and matrix hashes were recorded immediately before the struct-of-arrays
core landed and the Word Count digests immediately before it was deleted.
This script can only run the engine the tree has, so regenerating and
committing the result silently *redefines* the contract — do it only for
a deliberate, explained numerics change.

Fixtures written:

* ``golden_trace_<shape>_s<seed>.json`` — one per generated workload
  shape (diamond / fanin / deep_chain / multi_spout), the canonical
  4-minute trace plus its SHA-256 (see ``repro.workloads.trace``).
* ``golden_sim_configs.json`` — hashes for the configuration axes the
  default fixtures do not reach: sub-second ``tick_seconds``, finite
  ``stmgr_capacity_tps``, every fault kind, and combined cases.
* ``golden_matrix_cells_s7.json`` — per-cell simulate-phase hashes for
  the full 40-cell (shape × fault × traffic) scenario matrix.
* ``golden_wordcount_s42.json`` — digests of *every* series of three
  4-minute Word Count runs (transparent, finite stream managers,
  half-second ticks): values, timestamps and series-creation order.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent

SHAPE_SEEDS = [
    ("diamond", 7),
    ("fanin", 11),
    ("deep_chain", 13),
    ("multi_spout", 23),
]

FAULT_KINDS = ["crash", "straggler", "stmgr_stall", "metric_dropout"]

# (label suffix, config_trace keyword arguments); applied to every shape.
CONFIG_AXES: list[tuple[str, dict]] = [
    ("tick_0.5", {"tick_seconds": 0.5}),
    ("stmgr_150k", {"stmgr_capacity_tps": 150_000.0}),
    *[(f"fault_{kind}", {"fault": kind}) for kind in FAULT_KINDS],
]

# Combined cases on one shape each: fault plans and sub-second ticks
# must also hold under the finite-stmgr queueing path.
COMBINED_CASES: list[tuple[str, int, str, dict]] = [
    (
        "diamond", 7, "tick_0.5_stmgr_150k",
        {"tick_seconds": 0.5, "stmgr_capacity_tps": 150_000.0},
    ),
    (
        "fanin", 11, "fault_crash_stmgr_150k",
        {"fault": "crash", "stmgr_capacity_tps": 150_000.0},
    ),
    (
        "deep_chain", 13, "fault_stmgr_stall_stmgr_150k",
        {"fault": "stmgr_stall", "stmgr_capacity_tps": 150_000.0},
    ),
]

MATRIX_SEED = 7
MATRIX_MINUTES = 9


def main() -> None:
    from repro.workloads import golden_trace_payload, trace_hash
    from repro.workloads.matrix import default_grid, simulate_cell
    from repro.workloads.trace import config_trace

    for shape, seed in SHAPE_SEEDS:
        payload = golden_trace_payload(shape, seed, minutes=4)
        path = DATA_DIR / f"golden_trace_{shape}_s{seed}.json"
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {path.name}: {payload['trace_hash']}")

    cases = []
    for shape, seed in SHAPE_SEEDS:
        for label, kwargs in CONFIG_AXES:
            cases.append((shape, seed, label, kwargs))
    cases.extend(COMBINED_CASES)
    configs = []
    for shape, seed, label, kwargs in cases:
        trace = config_trace(shape, seed, minutes=4, **kwargs)
        configs.append(
            {
                "id": f"{shape}_s{seed}_{label}",
                "shape": shape,
                "seed": seed,
                "minutes": 4,
                "kwargs": kwargs,
                "trace_hash": trace_hash(trace),
            }
        )
        print(f"config {configs[-1]['id']}: {configs[-1]['trace_hash']}")
    (DATA_DIR / "golden_sim_configs.json").write_text(
        json.dumps({"configs": configs}, indent=2, sort_keys=True) + "\n"
    )

    cells = {}
    for cell in default_grid():
        _, _, trace = simulate_cell(cell, MATRIX_SEED, MATRIX_MINUTES)
        cells[cell.id] = trace_hash(trace)
        print(f"cell {cell.id}: {cells[cell.id]}")
    (DATA_DIR / "golden_matrix_cells_s7.json").write_text(
        json.dumps(
            {
                "matrix_seed": MATRIX_SEED,
                "calibration_minutes": MATRIX_MINUTES,
                "cells": cells,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote golden_matrix_cells_s7.json ({len(cells)} cells)")

    # The Word Count runs and their digest are the parity test's own.
    sys.path.insert(0, str(DATA_DIR.parent.parent))
    from tests.heron.test_simulator_parity import (
        WORDCOUNT_CONFIGS,
        run_wordcount,
        store_digest,
    )

    digests = {
        config_id: store_digest(run_wordcount(**kwargs))
        for config_id, kwargs in WORDCOUNT_CONFIGS.items()
    }
    (DATA_DIR / "golden_wordcount_s42.json").write_text(
        json.dumps({"configs": digests}, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote golden_wordcount_s42.json ({len(digests)} configs)")


if __name__ == "__main__":
    main()
