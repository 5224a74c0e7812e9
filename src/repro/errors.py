"""Exception hierarchy for the Caladrius reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers embedding the library can catch one type at their boundary.  The
subclasses mirror the architectural tiers described in the paper: topology
definition, packing, simulation, metrics access, forecasting, performance
modelling and the API tier.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class TopologyError(ReproError):
    """An invalid topology definition (unknown component, cycle, bad edge)."""


class PackingError(ReproError):
    """A packing plan could not be produced or is inconsistent."""


class SimulationError(ReproError):
    """The discrete-time simulator was driven into an invalid state."""


class MetricsError(ReproError):
    """A metrics query failed (unknown metric, empty range, bad tags)."""


class GraphError(ReproError):
    """A property-graph operation failed (missing vertex, cycle, no path)."""


class ForecastError(ReproError):
    """A forecasting model could not be fit or queried."""


class ModelError(ReproError):
    """A performance model was given inconsistent inputs."""


class CalibrationError(ModelError):
    """Calibration could not recover model parameters from observations."""


class ConfigError(ReproError):
    """A configuration file or mapping failed validation."""


class FaultError(ReproError):
    """A fault plan is malformed or targets entities the topology lacks."""


class DurabilityError(ReproError):
    """The write-ahead log or a checkpoint could not be read or written."""


class ApiError(ReproError):
    """An API-tier request was malformed or could not be served.

    ``payload`` carries extra structured fields merged into the JSON
    error response next to the ``"error"`` key (e.g. metrics-health
    details on a 503).
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        payload: dict[str, object] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.payload = dict(payload or {})


class DegradedMetricsWarning(UserWarning):
    """Metrics windows contain gaps; results were computed on the rest.

    Raised as a *warning* by the calibration and traffic-model tiers when
    metric minutes are missing or only partially reported (instance
    crashes, collector dropouts): the models degrade gracefully by
    skipping or interpolating the affected minutes instead of failing the
    request.
    """
