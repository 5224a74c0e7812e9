"""Command line of the ledger: ``run``, ``compare``, and the driver entry."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from benchmarks.ledger import compare as comparing
from benchmarks.ledger import document, e2e, layers
from benchmarks.ledger.child import ROOT
from benchmarks.ledger.e2e import WorkloadResult
from benchmarks.ledger.speed import pin_to_one_cpu
from benchmarks.ledger.workloads import BY_NAME, WORKLOADS

#: Where the driver entry leaves trace files (inside the checkout).
OUT_DIR = ROOT / ".ledger_out"


def _print_result(title: str, result: WorkloadResult) -> None:
    print(f"\n== {result.workload}: {title} ({result.rounds} round(s))")
    for name, entry in result.metrics.items():
        value = entry["value"]
        shown = "withheld" if value is None else f"{value:.6g}"
        samples = f"  n={entry['n']}" if "n" in entry else ""
        raw = entry.get("raw")
        clock = f"  (clock read {raw:.6g})" if raw is not None and raw != value else ""
        print(f"  {name:<52}{shown:>14} {entry['unit']}{samples}{clock}")
    for kind, op in result.operations.items():
        print(f"  op {kind:<20} attempted {op['attempted']:>7}  failed {op['failed']}")
    for name, value in sorted(result.counts.items()):
        print(f"  count {name:<26} {value:.6g}")
    for check in result.checks:
        print(f"  check {'ok  ' if check.ok else 'FAIL'} {check.name}: {check.detail}")


def cmd_run(args: argparse.Namespace) -> int:
    pin_to_one_cpu()
    benchmark = document.load_benchmark()
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    chosen = [BY_NAME[name] for name in args.workload] if args.workload else WORKLOADS
    sized = [workload.scaled(args.scale) for workload in chosen]
    out = Path(args.out) if args.out else None
    end_to_end: dict[str, WorkloadResult] = {}
    per_layer: dict[str, WorkloadResult] = {}
    for workload in sized:
        result = e2e.run_workload(workload, args.seed, seconds)
        end_to_end[workload.name] = result
        _print_result("end to end, tracing off", result)
        if args.trace:
            traced = layers.trace_workload(
                workload, args.seed, out.parent if out else OUT_DIR
            )
            per_layer[workload.name] = traced
            _print_result("per layer, traced", traced)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        payload = document.build(
            args.seed, seconds, args.scale, sized, end_to_end, per_layer
        )
        out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf8")
    failed = [
        f"{result.workload}: {check.name}"
        for result in list(end_to_end.values()) + list(per_layer.values())
        for check in result.checks if not check.ok
    ]
    for line in failed:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    return 1 if failed else 0


def _documents(paths: list[str]) -> list[dict[str, Any]]:
    """Run documents named directly or found in named directories (where
    ``run --trace --out`` leaves its ``trace_<workload>.json`` files too)."""
    found: list[Path] = []
    for text in paths:
        path = Path(text)
        if path.is_dir():
            found += sorted(
                p for p in path.glob("*.json") if not p.name.startswith("trace_")
            )
        else:
            found.append(path)
    return [document.load(path) for path in found]


def cmd_compare(args: argparse.Namespace) -> int:
    side_a = _documents([args.a] + args.more_a)
    side_b = _documents([args.b] + args.more_b)
    rows, problems, notes = comparing.compare(
        side_a, side_b, document.load_benchmark()
    )
    print("\n".join(comparing.render(rows)))
    for line in notes:
        print(f"note: {line}")
    for line in problems:
        print(f"PROBLEM: {line}", file=sys.stderr)
    return 1 if problems else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the workloads, print every metric")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--workload", action="append", choices=sorted(BY_NAME),
                     help="run only this workload (repeatable)")
    run.add_argument("--trace", action="store_true",
                     help="also make the traced per-layer run")
    run.add_argument("--out", metavar="F",
                     help="write the caladrius.bench/v1 document here; trace "
                          "files land beside it")
    run.add_argument("--seconds", type=float, default=None,
                     help="pipeline seconds to measure per workload "
                          "(default: BENCHMARK.json run_seconds)")
    run.add_argument("--scale", type=float, default=1.0,
                     help="shrink every size constant (smoke tests only)")
    run.set_defaults(handler=cmd_run)
    cmp_ = sub.add_parser("compare", help="judge runs B against runs A")
    cmp_.add_argument("a", help="a run document, or a directory of them")
    cmp_.add_argument("b", help="a run document, or a directory of them")
    cmp_.add_argument("--more-a", nargs="*", default=[], metavar="F")
    cmp_.add_argument("--more-b", nargs="*", default=[], metavar="F")
    cmp_.set_defaults(handler=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


# ----------------------------------------------------------------------
# The benchmark driver's entry: one workload, one JSON line
# ----------------------------------------------------------------------
def driver_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/ledger/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    benchmark = document.load_benchmark()
    workload = BY_NAME[args.workload]
    if args.trace:
        result = layers.trace_workload(workload, args.seed, OUT_DIR)
        wanted = benchmark["per_layer"]
        title = "per layer, traced"
    else:
        result = e2e.run_workload(workload, args.seed, args.seconds)
        wanted = benchmark["end_to_end"]
        title = "end to end, tracing off"
    _print_result(title, result)
    metrics = {}
    for spec in wanted:
        entry = result.metrics[spec["name"]]
        if entry["value"] is None:
            print(f"metric {spec['name']} was withheld", file=sys.stderr)
            return 1
        metrics[spec["name"]] = {"value": entry["value"], "unit": entry["unit"]}
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0
