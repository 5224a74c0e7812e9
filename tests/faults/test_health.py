"""The metrics-health gate over one frame of the spouts' ``source-count``."""

from __future__ import annotations

import pytest

from repro.errors import MetricsError
from repro.faults.health import assess_topology_metrics
from repro.heron.metrics import MetricNames
from repro.timeseries.store import MetricsStore


def spout_store(reports, retention=None):
    """``reports[instance] = minutes`` of ``source-count`` for spout ``s``."""
    store = MetricsStore(retention_seconds=retention)
    rows = sorted(
        (minute, instance) for instance, minutes in reports.items() for minute in minutes
    )
    for minute, instance in rows:
        store.write(
            MetricNames.SOURCE_COUNT, 60 * minute, 100.0,
            {"topology": "t", "component": "s", "instance": instance},
        )
    return store


def test_healthy_and_degraded_verdicts():
    store = spout_store({"s_0": range(1, 11), "s_1": [1, 2, 3, 4, 9, 10]})
    verdict = assess_topology_metrics(store, "t", ["s"])
    assert (verdict.status, verdict.degraded_minutes, verdict.total_minutes) == (
        "degraded", 4, 10,
    )
    assert assess_topology_metrics(store, "t", ["s"], 0.5).usable


def test_unavailable_without_source_series():
    verdict = assess_topology_metrics(MetricsStore(), "t", ["s"])
    assert verdict.status == "unavailable"
    assert verdict.detail == "no source metrics for spout 's'"
    with pytest.raises(MetricsError):
        assess_topology_metrics(MetricsStore(), "t", ["s"], 1.5)


def test_a_removed_instance_trimmed_away_does_not_degrade_forever():
    """Retention empties the series of a spout instance a scale-down
    removed; the series stays in the store with no sample, and used to
    count as an instance that never reports — every minute degraded, a
    503 to every model request from then on."""
    store = spout_store(
        {"s_0": range(1, 13), "s_1": range(1, 13), "s_2": [1, 2]}, retention=300
    )
    assert len(store) == 3
    verdict = assess_topology_metrics(store, "t", ["s"])
    assert verdict.usable and verdict.degraded_minutes == 0
    assert verdict.total_minutes == 6
