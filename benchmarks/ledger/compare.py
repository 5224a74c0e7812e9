"""``compare``: judge two sets of runs against the benchmark's bounds.

One row per (end-to-end metric, workload): each side's median and
quartiles, and a verdict —

``better`` / ``worse``
    side B's median is better / worse than side A's by more than the
    metric's bound from ``BENCHMARK.json``;
``same``
    the medians are within the bound of each other;
``unresolved``
    the run-to-run spread of either side (inter-quartile distance over
    median) exceeds the bound *and* the two sides' runs overlap, so the
    data cannot tell a change from noise;
``report-only``
    the metric has no bound (it is not in ``BENCHMARK.json``).

Per-layer counts marked exact must repeat within a side (runs of one
commit that disagree are a problem) and are noted when the two sides
differ.  The exit status is non-zero when any row is ``worse``, side B
failed a larger share of its operations than side A, or an exact count
did not repeat.
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from benchmarks.ledger.stats import iqr_share, quartiles


@dataclass
class Row:
    metric: str
    workload: str
    unit: str
    a: tuple[float, float, float]  # q1, median, q3
    b: tuple[float, float, float]
    runs: tuple[int, int]
    bound: float | None
    change: float  # signed share of A's median; positive = B is worse
    verdict: str


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float | None
) -> tuple[float, str]:
    """``(change, verdict)`` for one metric on one workload."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    raw = (median_b - median_a) / median_a if median_a else 0.0
    change = raw if better == "lower" else -raw
    if bound is None:
        return change, "report-only"
    if better == "lower":
        b_all_better = max(b) < min(a)
        b_all_worse = min(b) > max(a)
    else:
        b_all_better = min(b) > max(a)
        b_all_worse = max(b) < min(a)
    noisy = max(iqr_share(a), iqr_share(b)) > bound
    if noisy and not (b_all_better or b_all_worse):
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "same"


def _values(documents, workload: str, section: str, metric: str) -> list[float]:
    out = []
    for document in documents:
        entry = (
            document["workloads"].get(workload, {}).get(section, {})
            .get("metrics", {}).get(metric)
        )
        if entry is not None and entry["value"] is not None:
            out.append(float(entry["value"]))
    return out


def _failed_share(documents, workload: str) -> float:
    attempted = failed = 0
    for document in documents:
        section = document["workloads"].get(workload, {}).get("end_to_end", {})
        for op in section.get("operations", {}).values():
            attempted += op["attempted"]
            failed += op["failed"]
    return failed / attempted if attempted else 0.0


def compare(
    side_a: Sequence[dict[str, Any]],
    side_b: Sequence[dict[str, Any]],
    benchmark: dict[str, Any],
) -> tuple[list[Row], list[str], list[str]]:
    """``(rows, problems, notes)``: a row for every (metric, workload)
    both sides measured; problems fail the comparison, notes do not."""
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    rows: list[Row] = []
    problems: list[str] = []
    notes: list[str] = []
    workloads = [
        name for name in side_a[0]["workloads"] if name in side_b[0]["workloads"]
    ]
    for workload in workloads:
        section = side_a[0]["workloads"][workload].get("end_to_end", {})
        for metric, entry in section.get("metrics", {}).items():
            a = _values(side_a, workload, "end_to_end", metric)
            b = _values(side_b, workload, "end_to_end", metric)
            if not a or not b:
                continue
            change, outcome = verdict(a, b, entry["better"], bounds.get(metric))
            rows.append(Row(
                metric, workload, entry["unit"], quartiles(a), quartiles(b),
                (len(a), len(b)), bounds.get(metric), change, outcome,
            ))
            if outcome == "worse":
                problems.append(
                    f"{metric} on {workload} is worse by {change:.1%} "
                    f"(bound {bounds[metric]:.0%})"
                )
        share_a = _failed_share(side_a, workload)
        share_b = _failed_share(side_b, workload)
        if share_b > share_a:
            problems.append(
                f"{workload}: failed share rose from {share_a:.4%} to {share_b:.4%}"
            )
        layers = side_a[0]["workloads"][workload].get("per_layer", {})
        for metric, entry in layers.get("metrics", {}).items():
            if not entry.get("exact"):
                continue
            seen_a = set(_values(side_a, workload, "per_layer", metric))
            seen_b = set(_values(side_b, workload, "per_layer", metric))
            for label, seen in (("A", seen_a), ("B", seen_b)):
                if len(seen) > 1:
                    problems.append(
                        f"exact count {metric} on {workload} did not repeat "
                        f"within side {label}: {sorted(seen)}"
                    )
            if seen_a and seen_b and seen_a != seen_b:
                notes.append(
                    f"exact count {metric} on {workload}: "
                    f"A {sorted(seen_a)}, B {sorted(seen_b)}"
                )
    return rows, problems, notes


def render(rows: Sequence[Row]) -> list[str]:
    lines = [
        f"{'workload':<14}{'metric':<24}{'unit':<11}"
        f"{'A q1/med/q3':>32}  {'B q1/med/q3':>32}  {'change':>8} {'bound':>6}  verdict"
    ]
    for row in rows:
        a = "/".join(f"{value:.4g}" for value in row.a)
        b = "/".join(f"{value:.4g}" for value in row.b)
        bound = f"{row.bound:.0%}" if row.bound is not None else "-"
        lines.append(
            f"{row.workload:<14}{row.metric:<24}{row.unit:<11}"
            f"{a:>32}  {b:>32}  {row.change:>+8.1%} {bound:>6}  {row.verdict}"
            f"  (n={row.runs[0]}/{row.runs[1]})"
        )
    return lines
