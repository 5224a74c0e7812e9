"""A redeployable simulated deployment with continuous metric history.

Scaling a real Heron topology restarts it with a new packing plan while
the metrics database keeps accumulating.  :class:`SimulatedCluster`
reproduces that: every :meth:`deploy` builds a fresh simulation for the
new parallelisms, started at the previous simulation's clock, writing to
the same store and re-registering with the same tracker.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import replace

from repro.errors import SimulationError
from repro.heron.metrics import MetricNames
from repro.heron.simulation import (
    ComponentLogic,
    HeronSimulation,
    SimulationConfig,
    SpoutLogic,
)
from repro.heron.topology import LogicalTopology
from repro.heron.tracker import TopologyTracker
from repro.heron.packing import PackingPlan
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.store import MetricsStore

__all__ = ["SimulatedCluster"]

BuildFn = Callable[
    [Mapping[str, int] | None],
    tuple[LogicalTopology, PackingPlan, dict[str, SpoutLogic | ComponentLogic]],
]


def _word_count_builder(base: WordCountParams) -> BuildFn:
    def build(parallelisms: Mapping[str, int] | None):
        params = base
        if parallelisms:
            params = replace(
                base,
                spout_parallelism=parallelisms.get(
                    "sentence-spout", base.spout_parallelism
                ),
                splitter_parallelism=parallelisms.get(
                    "splitter", base.splitter_parallelism
                ),
                counter_parallelism=parallelisms.get(
                    "counter", base.counter_parallelism
                ),
            )
        return build_word_count(params)

    return build


class SimulatedCluster:
    """One topology, redeployable at new parallelisms.

    Parameters
    ----------
    build:
        Maps a parallelism proposal to ``(topology, packing, logic)``.
        Defaults to the Word Count factory when ``word_count_params`` is
        given instead.
    word_count_params:
        Convenience: base parameters for the default Word Count builder.
    config:
        Simulation engine parameters (seed advances per deployment so
        redeployments do not replay identical noise).
    """

    def __init__(
        self,
        build: BuildFn | None = None,
        word_count_params: WordCountParams | None = None,
        config: SimulationConfig | None = None,
    ) -> None:
        if build is None:
            build = _word_count_builder(word_count_params or WordCountParams())
        self._build = build
        # Every deployment runs these engine parameters, reseeded.
        self._engine = config or SimulationConfig()
        self.store = MetricsStore()
        self.tracker = TopologyTracker()
        self.simulation: HeronSimulation | None = None
        self._source_tpm: dict[str, float] = {}
        self._deploy_count = 0
        self._deployed_at: int = 0
        self.deploy(None)

    # ------------------------------------------------------------------
    # Deployment lifecycle
    # ------------------------------------------------------------------
    def deploy(self, parallelisms: Mapping[str, int] | None) -> None:
        """(Re)deploy the topology with the requested parallelisms.

        The new simulation continues the metric clock; configured source
        rates carry over (the external data keeps flowing during a
        restart).
        """
        topology, packing, logic = self._build(parallelisms)
        start = 0 if self.simulation is None else int(self.simulation.now)
        if start % 60 != 0:
            raise SimulationError(
                "redeploy must happen on a minute boundary"
            )
        config = replace(
            self._engine, seed=self._engine.seed + self._deploy_count
        )
        self.simulation = HeronSimulation(
            topology, packing, logic, self.store, config, start_at_seconds=start
        )
        if self._deploy_count == 0:
            self.tracker.register(topology, packing)
        else:
            self.tracker.update(topology.name, topology, packing)
        for spout, rate in self._source_tpm.items():
            self.simulation.set_source_rate(spout, rate)
        self._deploy_count += 1
        self._deployed_at = start

    @property
    def topology(self) -> LogicalTopology:
        """The currently deployed logical topology."""
        assert self.simulation is not None
        return self.simulation.topology

    @property
    def topology_name(self) -> str:
        """Name of the deployed topology."""
        return self.topology.name

    @property
    def deployed_at_seconds(self) -> int:
        """Metric timestamp at which the current deployment started."""
        return self._deployed_at

    @property
    def deployments(self) -> int:
        """Number of deploy calls so far (including the initial one)."""
        return self._deploy_count

    def parallelisms(self) -> dict[str, int]:
        """Current per-component parallelisms."""
        return {
            name: spec.parallelism
            for name, spec in self.topology.components.items()
        }

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def set_source_rate(self, spout: str, tuples_per_minute: float) -> None:
        """Set a spout's external rate (persists across redeployments)."""
        assert self.simulation is not None
        self.simulation.set_source_rate(spout, tuples_per_minute)
        self._source_tpm[spout] = tuples_per_minute

    def run(self, minutes: float) -> None:
        """Advance the deployed simulation."""
        assert self.simulation is not None
        self.simulation.run(minutes)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        assert self.simulation is not None
        return self.simulation.now

    # ------------------------------------------------------------------
    # Observations (what a scaler reads between rounds)
    # ------------------------------------------------------------------
    def recent_output_tpm(self, window_minutes: int) -> float:
        """Mean sink processing rate over the trailing window."""
        start = int(self.now) - window_minutes * 60
        total = 0.0
        for sink in self.topology.sinks():
            series = self.store.aggregate(
                MetricNames.EXECUTE_COUNT,
                {"topology": self.topology_name, "component": sink.name},
                start=start,
            )
            total += series.mean()
        return total

    def recent_backpressure_ms(self, window_minutes: int) -> float:
        """Mean topology backpressure time over the trailing window."""
        start = int(self.now) - window_minutes * 60
        series = self.store.get(
            MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS,
            {"topology": self.topology_name},
        ).between(start, 2**62)
        return series.mean() if len(series) else 0.0

    def component_backpressure_ms(
        self, window_minutes: int
    ) -> dict[str, float]:
        """Per-bolt mean backpressure time over the trailing window."""
        start = int(self.now) - window_minutes * 60
        result = {}
        for bolt in self.topology.bolts():
            series = self.store.aggregate(
                MetricNames.BACKPRESSURE_TIME_MS,
                {"topology": self.topology_name, "component": bolt.name},
                start=start,
            )
            result[bolt.name] = series.mean() if len(series) else 0.0
        return result
