"""Metrics-health assessment: is a topology's data fit to model on?

The API tier refuses to serve predictions computed on badly degraded
metrics — a model calibrated on a window where half the minutes are
missing is worse than no answer.  :func:`assess_topology_metrics` scans
the spouts' ``source-count`` series (the input every model consumes) and
classifies the topology's metrics as ``healthy``, ``degraded`` or
``unavailable``; the service maps ``degraded``/``unavailable`` to a
structured HTTP 503 carrying this report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MetricsError
from repro.heron.metrics import MetricNames
from repro.timeseries.store import MetricsStore

__all__ = ["MetricsHealth", "assess_topology_metrics"]

HEALTHY = "healthy"
DEGRADED = "degraded"
UNAVAILABLE = "unavailable"


@dataclass(frozen=True)
class MetricsHealth:
    """Health verdict over one topology's metric windows.

    ``gap_fraction`` is the share of expected per-minute windows that are
    missing or only partially reported across the topology's spouts;
    ``status`` applies the caller's threshold to it.
    """

    status: str
    gap_fraction: float
    degraded_minutes: int
    total_minutes: int
    detail: str

    @property
    def usable(self) -> bool:
        """True when models may be served from these metrics."""
        return self.status == HEALTHY

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly representation (embedded in 503 responses)."""
        return {
            "status": self.status,
            "gap_fraction": round(self.gap_fraction, 4),
            "degraded_minutes": self.degraded_minutes,
            "total_minutes": self.total_minutes,
            "detail": self.detail,
        }


def assess_topology_metrics(
    store: MetricsStore,
    topology_name: str,
    spouts: list[str],
    degraded_threshold: float = 0.25,
) -> MetricsHealth:
    """Classify one topology's metric health from its spout series.

    ``degraded_threshold`` is the maximum tolerable fraction of degraded
    minutes; above it the verdict is ``degraded``.  A topology with no
    source series at all is ``unavailable``.
    """
    if not 0.0 <= degraded_threshold <= 1.0:
        raise MetricsError("degraded_threshold must be in [0, 1]")
    total = 0
    degraded = 0
    frame = store.topology_frame(topology_name, [MetricNames.SOURCE_COUNT])
    for spout in spouts:
        try:
            series, dropped = frame.group(
                MetricNames.SOURCE_COUNT, spout
            ).complete()
        except MetricsError:
            return MetricsHealth(
                status=UNAVAILABLE,
                gap_fraction=1.0,
                degraded_minutes=0,
                total_minutes=0,
                detail=f"no source metrics for spout {spout!r}",
            )
        total += len(series) + len(dropped)
        degraded += len(dropped)
    if total == 0:
        return MetricsHealth(
            status=UNAVAILABLE,
            gap_fraction=1.0,
            degraded_minutes=0,
            total_minutes=0,
            detail="topology has no metric history",
        )
    fraction = degraded / total
    if fraction > degraded_threshold:
        status = DEGRADED
        detail = (
            f"{degraded} of {total} metric minutes are missing or partial "
            f"(threshold {degraded_threshold:.0%})"
        )
    else:
        status = HEALTHY
        detail = f"{degraded} of {total} metric minutes degraded"
    return MetricsHealth(
        status=status,
        gap_fraction=fraction,
        degraded_minutes=degraded,
        total_minutes=total,
        detail=detail,
    )
