"""Reading one number from a component's telemetry registry."""

from __future__ import annotations

from typing import Any


def reading(component: Any, name: str) -> int:
    """Counter or gauge ``name`` of ``component.telemetry``; 0 when it was
    never counted."""
    snapshot = component.telemetry.snapshot()
    return {**snapshot["counters"], **snapshot["gauges"]}.get(name, 0)
