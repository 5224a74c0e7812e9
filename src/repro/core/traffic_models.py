"""Caladrius traffic models (paper Fig. 2, "Traffic Model Interface").

A traffic model answers: *what will this topology's source throughput be
over the next N minutes?*  It reads the spouts' per-minute source
counters from the metrics store, fits a forecaster, and returns summary
statistics for the future window — exactly the contract the paper's API
tier exposes at ``/model/traffic/...``.

Two implementations mirror the paper's:

* :class:`ProphetTrafficModel` — the Prophet-backed model, in either
  *aggregate* mode (one model over the summed spout traffic) or
  *per-instance* mode (one model per spout instance, "slower but more
  accurate");
* :class:`StatsSummaryTrafficModel` — the statistic-summary model for
  stable traffic.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DegradedMetricsWarning, ForecastError, ModelError
from repro.forecasting.base import Forecast, Forecaster
from repro.forecasting.prophet_lite import ProphetLite
from repro.forecasting.summary import SummaryForecaster
from repro.heron.metrics import MetricNames
from repro.heron.tracker import TopologyTracker
from repro.timeseries.aggregation import rollup
from repro.timeseries.gaps import fill_gaps
from repro.timeseries.series import TimeSeries
from repro.timeseries.store import MetricsStore, SeriesGroup

__all__ = [
    "TrafficPrediction",
    "TrafficModel",
    "ProphetTrafficModel",
    "StatsSummaryTrafficModel",
]

_MINUTE = 60


@dataclass(frozen=True)
class TrafficPrediction:
    """Result of a traffic-model run.

    ``summary`` aggregates the whole topology's predicted source rate
    (tuples per minute); ``per_spout`` breaks it down by spout component
    (and, in per-instance mode, ``per_instance`` by spout instance).
    """

    topology: str
    model: str
    horizon_minutes: int
    summary: dict[str, float]
    per_spout: dict[str, dict[str, float]] = field(default_factory=dict)
    per_instance: dict[str, dict[str, float]] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly representation (the API-tier response body)."""
        return {
            "topology": self.topology,
            "model": self.model,
            "horizon_minutes": self.horizon_minutes,
            "summary": self.summary,
            "per_spout": self.per_spout,
            "per_instance": self.per_instance,
        }


class TrafficModel(ABC):
    """Base class for traffic models.

    Parameters
    ----------
    tracker:
        Topology metadata source (which components are spouts).
    store:
        Metrics database holding the spouts' ``source-count`` series.
    """

    name = "traffic-model"

    def __init__(self, tracker: TopologyTracker, store: MetricsStore) -> None:
        self.tracker = tracker
        self.store = store

    @abstractmethod
    def predict(
        self,
        topology_name: str,
        source_minutes: int | None,
        horizon_minutes: int,
        cluster: str = "local",
        environ: str = "test",
    ) -> TrafficPrediction:
        """Forecast the topology's source throughput.

        ``source_minutes`` restricts history to the trailing window
        (``None`` = all history); ``horizon_minutes`` is the future
        period the user asked about.
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _spout_series(
        self,
        topology_name: str,
        source_minutes: int | None,
        cluster: str,
        environ: str,
    ) -> dict[str, tuple[TimeSeries, SeriesGroup]]:
        """Per spout: its complete-minute ``source-count`` rollup (gaps
        interpolated, cut to the trailing window) and the member series
        it was summed from — one read of the store for all spouts."""
        tracked = self.tracker.get(topology_name, cluster, environ)
        spouts = [s.name for s in tracked.topology.spouts()]
        frame = self.store.topology_frame(
            topology_name, [MetricNames.SOURCE_COUNT]
        )
        series = {}
        for spout in spouts:
            group = frame.group(MetricNames.SOURCE_COUNT, spout)
            full, degraded = group.complete()
            if degraded:
                warnings.warn(
                    f"spout {spout!r} of topology {topology_name!r} is "
                    f"missing {len(degraded)} metric minute(s); gaps were "
                    "interpolated before forecasting",
                    DegradedMetricsWarning,
                    stacklevel=3,
                )
                full = fill_gaps(full)
            if source_minutes is not None:
                full = full.tail(source_minutes)
            series[spout] = full, group
        return series

    @staticmethod
    def _check_horizon(horizon_minutes: int) -> None:
        if horizon_minutes < 1:
            raise ModelError("horizon_minutes must be >= 1")


class ProphetTrafficModel(TrafficModel):
    """Prophet-backed traffic forecasting (paper Section IV-A).

    Parameters
    ----------
    per_instance:
        When True, fit "separate models ... for each spout instance's
        source throughput" and sum the results; when False (default) fit
        "a single Prophet model ... for all spouts' source throughput as
        a whole".  The paper notes per-instance is slower but more
        accurate when instances carry different traffic.
    make_forecaster:
        Factory for the underlying forecaster; defaults to
        :class:`ProphetLite` with daily+weekly seasonality.
    """

    name = "prophet"

    def __init__(
        self,
        tracker: TopologyTracker,
        store: MetricsStore,
        per_instance: bool = False,
        make_forecaster: Callable[[], Forecaster] | None = None,
        **forecaster_options: object,
    ) -> None:
        super().__init__(tracker, store)
        self.per_instance = per_instance
        if make_forecaster is None:
            self.make_forecaster: Callable[[], Forecaster] = (
                lambda: ProphetLite(**forecaster_options)  # type: ignore[arg-type]
            )
        else:
            if forecaster_options:
                raise ModelError(
                    "forecaster options conflict with an explicit factory"
                )
            self.make_forecaster = make_forecaster

    def predict(
        self,
        topology_name: str,
        source_minutes: int | None,
        horizon_minutes: int,
        cluster: str = "local",
        environ: str = "test",
    ) -> TrafficPrediction:
        """Fit and forecast; see :class:`TrafficModel.predict`."""
        self._check_horizon(horizon_minutes)
        spout_series = self._spout_series(
            topology_name, source_minutes, cluster, environ
        )
        per_spout: dict[str, dict[str, float]] = {}
        per_inst: dict[str, dict[str, float]] = {}
        forecasts: list[Forecast] = []
        for spout, (series, group) in spout_series.items():
            if self.per_instance:
                spout_forecasts = []
                for instance_id in sorted(
                    set(group.tag_values("instance")) - {None}
                ):
                    inst_series = rollup(
                        group.where("instance", instance_id).series()
                    )
                    if source_minutes is not None:
                        inst_series = inst_series.tail(source_minutes)
                    fc = self._fit_predict(inst_series, horizon_minutes)
                    per_inst[instance_id] = fc.summary()
                    spout_forecasts.append(fc)
                combined = _sum_forecasts(spout_forecasts)
            else:
                combined = self._fit_predict(series, horizon_minutes)
            per_spout[spout] = combined.summary()
            forecasts.append(combined)
        total = _sum_forecasts(forecasts)
        return TrafficPrediction(
            topology=topology_name,
            model=self.name + ("-per-instance" if self.per_instance else ""),
            horizon_minutes=horizon_minutes,
            summary=total.summary(),
            per_spout=per_spout,
            per_instance=per_inst,
        )

    def _fit_predict(self, series, horizon_minutes: int) -> Forecast:
        forecaster = self.make_forecaster()
        forecaster.fit(series)
        return forecaster.forecast(horizon_minutes, step_seconds=_MINUTE)


class StatsSummaryTrafficModel(TrafficModel):
    """The statistic-summary traffic model for stable traffic profiles."""

    name = "stats-summary"

    def __init__(
        self,
        tracker: TopologyTracker,
        store: MetricsStore,
        statistic: str = "mean",
        window: int | None = None,
    ) -> None:
        super().__init__(tracker, store)
        self.statistic = statistic
        self.window = window

    def predict(
        self,
        topology_name: str,
        source_minutes: int | None,
        horizon_minutes: int,
        cluster: str = "local",
        environ: str = "test",
    ) -> TrafficPrediction:
        """Project a summary statistic forward; see the base class."""
        self._check_horizon(horizon_minutes)
        spout_series = self._spout_series(
            topology_name, source_minutes, cluster, environ
        )
        per_spout: dict[str, dict[str, float]] = {}
        forecasts: list[Forecast] = []
        for spout, (series, _) in spout_series.items():
            forecaster = SummaryForecaster(self.statistic, self.window)
            forecast = forecaster.fit(series).forecast(
                horizon_minutes, step_seconds=_MINUTE
            )
            per_spout[spout] = forecast.summary()
            forecasts.append(forecast)
        total = _sum_forecasts(forecasts)
        return TrafficPrediction(
            topology=topology_name,
            model=f"{self.name}-{self.statistic}",
            horizon_minutes=horizon_minutes,
            summary=total.summary(),
            per_spout=per_spout,
        )


def _sum_forecasts(forecasts: list[Forecast]) -> Forecast:
    """Sum forecasts over shared timestamps (band widths add).

    Adding the bands is conservative (it ignores diversification between
    spouts), which is the right bias for provisioning decisions.
    """
    if not forecasts:
        raise ForecastError("no forecasts to combine")
    if len(forecasts) == 1:
        return forecasts[0]
    base = forecasts[0]
    ts = base.timestamps
    for other in forecasts[1:]:
        if not np.array_equal(other.timestamps, ts):
            raise ForecastError("forecasts cover different timestamps")
    yhat = np.sum([f.yhat for f in forecasts], axis=0)
    lower = np.sum([f.yhat_lower for f in forecasts], axis=0)
    upper = np.sum([f.yhat_upper for f in forecasts], axis=0)
    return Forecast(ts, yhat, lower, upper, base.level)
