"""Model registry: config names → constructed model instances.

The paper's API tier includes a "Config and Class Loader" that turns the
YAML model list into live model objects.  :func:`build_registry` is that
loader: it instantiates every enabled traffic and performance model with
its configured options, bound to the shared tracker and metrics store.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
from repro.errors import ConfigError, ReproError
from repro.heron.tracker import TopologyTracker
from repro.timeseries.store import MetricsStore

__all__ = ["ModelRegistry", "build_registry"]

#: Config name → model constructor, for every selectable model.
_TRAFFIC = {
    "prophet": ProphetTrafficModel,
    "prophet-per-instance": partial(ProphetTrafficModel, per_instance=True),
    "stats-summary": StatsSummaryTrafficModel,
}
_PERFORMANCE = {
    "throughput-prediction": ThroughputPredictionModel,
    "backpressure-evaluation": BackpressureEvaluationModel,
}


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
    A Prophet model builds one forecaster here, so an option that the
    model or its forecaster does not take is a :class:`ConfigError` at
    start-up, not a failure of every request.
    """
    traffic: dict[str, TrafficModel] = {}
    performance: dict[str, PerformanceModel] = {}
    try:
        for name in config.traffic_models:
            model = _TRAFFIC[name](tracker, store, **config.options_for(name))
            if isinstance(model, ProphetTrafficModel):
                model.make_forecaster()
            traffic[name] = model
        for name in config.performance_models:
            performance[name] = _PERFORMANCE[name](
                tracker, store, calibrations, **config.options_for(name)
            )
    except (TypeError, ReproError) as exc:
        raise ConfigError(f"model_options.{name}: {exc}") from exc
    return ModelRegistry(traffic=traffic, performance=performance)
