"""The accuracy ratchet and the ``EXPERIMENTS.md`` tables, over ACCURACY.json.

``ACCURACY.json`` is ``python -m repro.experiments.runner``'s document:
``{scale: {section: [record, ...]}}`` for the ``full`` and ``quick``
scales.  This module needs no pytest, so the CI ``accuracy`` job applies
:func:`regressions` to a fresh full-scale run with it, and

    PYTHONPATH=src python -m tests.experiments.accuracy

re-renders the two tables of ``EXPERIMENTS.md`` from the committed file.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
ACCURACY = ROOT / "ACCURACY.json"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"


def load() -> dict:
    return json.loads(ACCURACY.read_text("utf8"))


def at(sections: dict, experiment: str, metric: str) -> dict[str, float]:
    """``{config: value}`` of one metric of one experiment."""
    return {
        entry["config"]: entry["value"]
        for records in sections.values()
        for entry in records
        if entry["experiment"] == experiment and entry["metric"] == metric
    }


def regressions(committed: dict, fresh: dict) -> list[str]:
    """Why ``fresh`` records (``{section: [record]}``) may not stand for
    the ``committed`` ones, one line per record that is worse in its
    ``better`` direction, differs in any field but ``value`` (the code is
    the only source of ``unit``, ``better``, ``paper`` and ``reason``), or
    is present on one side only."""

    def index(sections: dict) -> dict[str, dict]:
        return {
            f"{section}: {entry['experiment']} {entry['config']} {entry['metric']}": entry
            for section, records in sections.items()
            for entry in records
        }

    old, new = index(committed), index(fresh)
    problems = [f"{key}: not in ACCURACY.json" for key in new.keys() - old.keys()]
    problems += [f"{key}: no longer produced" for key in old.keys() - new.keys()]
    for key in old.keys() & new.keys():
        was, now, better = old[key]["value"], new[key]["value"], old[key]["better"]
        sign = 1 if better == "lower" else -1
        if not sign * now <= sign * was:  # NaN is never good enough
            problems.append(
                f"{key}: {now} is worse than the committed {was} ({better} is better)"
            )
        if {**old[key], "value": 0} != {**new[key], "value": 0}:
            problems.append(f"{key}: the code now reports {new[key]}; regenerate")
    return sorted(problems)


def _show(value: float | None, unit: str) -> str:
    if value is None:
        return ""
    if unit == "ratio":
        return f"{value:.2%}"
    if unit == "bool":
        return "yes" if value else "no"
    text = f"{value:,.6g}"
    return text if unit in ("count", "r2") else f"{text} {unit}"


def render(sections: dict, figures: bool) -> str:
    """One markdown table of the figure sections, or of all the others."""
    arrow = {"lower": "↓", "higher": "↑"}
    rows = [
        "| Experiment | Configuration | Metric | Measured | Paper | Known error |",
        "|---|---|---|---|---|---|",
    ]
    for section, records in sorted(sections.items()):
        if section.startswith("fig") != figures:
            continue
        rows += [
            f"| {e['experiment']} | {e['config']} | {e['metric']} "
            f"{arrow[e['better']]} | {_show(e['value'], e['unit'])} "
            f"| {_show(e.get('paper'), e['unit'])} | {e.get('reason', '')} |"
            for e in records
        ]
    return "\n".join(rows) + "\n"


def tables(text: str, sections: dict) -> str:
    """``text`` with both marked tables re-rendered from ``sections``."""
    for name, figures in (("figures", True), ("beyond", False)):
        marked = re.compile(
            rf"(<!-- accuracy:{name} -->\n).*?(<!-- /accuracy:{name} -->)", re.S
        )
        text = marked.sub(
            lambda m: m.group(1) + render(sections, figures) + m.group(2), text
        )
    return text


if __name__ == "__main__":
    EXPERIMENTS.write_text(
        tables(EXPERIMENTS.read_text("utf8"), load()["full"]), "utf8"
    )
