"""Accuracy records: the one shape every experiment reports in.

A record is one experiment × configuration × metric cell (the shape
PDSP-Bench reports benchmark results in): the measured ``value``, its
``unit``, which direction is ``better`` (``"lower"`` or ``"higher"``),
and optionally the value the paper reports for the same metric
(``paper``) and why a value is known to be poor (``reason``).

Values keep six significant digits, so a document of records is a pure
function of the code and its seeds: :func:`dumps` writes it as canonical
JSON with one record per line, which is what ``ACCURACY.json`` holds.
"""

from __future__ import annotations

import json

__all__ = ["dumps", "record"]


def record(
    experiment: str,
    config: str,
    metric: str,
    value: float,
    unit: str = "ratio",
    better: str = "lower",
    paper: float | None = None,
    reason: str | None = None,
) -> dict[str, object]:
    """One record; the key order is the canonical field order."""
    entry: dict[str, object] = {
        "experiment": experiment,
        "config": config,
        "metric": metric,
        "value": float(f"{float(value):.6g}"),
        "unit": unit,
        "better": better,
    }
    if paper is not None:
        entry["paper"] = paper
    if reason is not None:
        entry["reason"] = reason
    return entry


def dumps(document: dict[str, dict[str, list[dict]]]) -> str:
    """``{scale: {section: [record, ...]}}`` as canonical JSON text:
    scales and sections sorted, records in order, one per line."""
    scales = []
    for scale, sections in sorted(document.items()):
        blocks = []
        for name, records in sorted(sections.items()):
            rows = ",\n".join(f"      {json.dumps(entry)}" for entry in records)
            blocks.append(f'    "{name}": [\n{rows}\n    ]')
        scales.append(f'  "{scale}": {{\n' + ",\n".join(blocks) + "\n  }")
    return "{\n" + ",\n".join(scales) + "\n}\n"
