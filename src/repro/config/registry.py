"""Model registry: config names → constructed model instances.

The paper's API tier includes a "Config and Class Loader" that turns the
YAML model list into live model objects.  :func:`build_registry` is that
loader: it instantiates every enabled traffic and performance model with
its configured options, bound to the shared tracker and metrics store.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.loader import CaladriusConfig
from repro.core.calibration_cache import CalibrationCache
from repro.core.performance_models import (
    BackpressureEvaluationModel,
    PerformanceModel,
    ThroughputPredictionModel,
)
from repro.core.traffic_models import (
    ProphetTrafficModel,
    StatsSummaryTrafficModel,
    TrafficModel,
)
from repro.errors import ConfigError
from repro.forecasting.holt_winters import HoltWinters
from repro.heron.tracker import TopologyTracker
from repro.timeseries.store import MetricsStore

__all__ = ["ModelRegistry", "build_registry"]


@dataclass(frozen=True)
class ModelRegistry:
    """The live model instances the API tier dispatches to."""

    traffic: dict[str, TrafficModel]
    performance: dict[str, PerformanceModel]

    def traffic_model(self, name: str | None) -> list[TrafficModel]:
        """Models to run: the named one, or all when ``name`` is None."""
        if name is None:
            return list(self.traffic.values())
        if name not in self.traffic:
            raise ConfigError(f"traffic model {name!r} is not enabled")
        return [self.traffic[name]]

    def performance_model(self, name: str | None) -> list[PerformanceModel]:
        """Models to run: the named one, or all when ``name`` is None."""
        if name is None:
            return list(self.performance.values())
        if name not in self.performance:
            raise ConfigError(f"performance model {name!r} is not enabled")
        return [self.performance[name]]


def build_registry(
    config: CaladriusConfig,
    tracker: TopologyTracker,
    store: MetricsStore,
    calibrations: CalibrationCache | None = None,
) -> ModelRegistry:
    """Instantiate every enabled model with its configured options.

    Performance models share ``calibrations`` when the service passes
    its cache, so one request that runs several of them calibrates once.
    """
    traffic: dict[str, TrafficModel] = {}
    for name in config.traffic_models:
        options = config.options_for(name)
        if name == "prophet":
            traffic[name] = ProphetTrafficModel(tracker, store, **options)
        elif name == "prophet-per-instance":
            traffic[name] = ProphetTrafficModel(
                tracker, store, per_instance=True, **options
            )
        elif name == "stats-summary":
            traffic[name] = StatsSummaryTrafficModel(tracker, store, **options)
        elif name == "holt-winters":
            model = ProphetTrafficModel(
                tracker,
                store,
                make_forecaster=lambda options=dict(options): HoltWinters(
                    **options
                ),
            )
            model.name = "holt-winters"
            traffic[name] = model
        else:  # pragma: no cover - load_config already validates names
            raise ConfigError(f"unknown traffic model {name!r}")
    performance: dict[str, PerformanceModel] = {}
    for name in config.performance_models:
        options = config.options_for(name)
        if name == "throughput-prediction":
            performance[name] = ThroughputPredictionModel(
                tracker, store, calibrations, **options
            )
        elif name == "backpressure-evaluation":
            performance[name] = BackpressureEvaluationModel(
                tracker, store, calibrations, **options
            )
        else:  # pragma: no cover - load_config already validates names
            raise ConfigError(f"unknown performance model {name!r}")
    return ModelRegistry(traffic=traffic, performance=performance)
