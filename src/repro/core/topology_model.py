"""The topology throughput model (paper Eq. 12-14).

A topology's throughput is limited by its *critical path*.  With a model
for every component on the path, the path's output is the chain of
component models (Eq. 12); inverting the chain locates the topology's
saturation point — the source rate at which backpressure will start
(Eq. 13) — and comparing it with the current or forecast source rate
classifies backpressure risk (Eq. 14).

Beyond the paper's single-path chaining, :meth:`TopologyModel.propagate`
walks the whole DAG in topological order, which both evaluates all
critical-path candidates at once (the paper's suggestion for topologies
whose critical path "cannot be identified easily") and yields
per-component input rates for the CPU model.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

from repro.core.component_model import ComponentModel
from repro.core.instance_model import InstanceModel
from repro.errors import ModelError
from repro.heron.topology import LogicalTopology

__all__ = ["BackpressureRisk", "RiskAssessment", "TopologyModel"]


class BackpressureRisk(Enum):
    """Eq. 14: backpressure risk classification."""

    LOW = "low"
    HIGH = "high"


@dataclass(frozen=True)
class RiskAssessment:
    """Outcome of a backpressure-risk evaluation.

    ``headroom`` is ``saturation_source_rate / source_rate`` (infinite
    when the topology can never saturate); ``bottleneck`` names the
    component that saturates first.
    """

    risk: BackpressureRisk
    source_rate: float
    saturation_source_rate: float
    bottleneck: str | None

    @property
    def headroom(self) -> float:
        """How many times the current traffic fits below saturation."""
        if self.source_rate == 0:
            return math.inf
        return self.saturation_source_rate / self.source_rate


class TopologyModel:
    """Chained component models over a topology DAG.

    Parameters
    ----------
    topology:
        The logical topology (provides the DAG structure and stream
        names).
    components:
        Component name → :class:`ComponentModel`.  Every bolt needs an
        entry.  Spouts without an entry default to the identity model
        (the paper's evaluation spout: "its source, input and output
        throughput are same").
    """

    def __init__(
        self,
        topology: LogicalTopology,
        components: Mapping[str, ComponentModel],
    ) -> None:
        self.topology = topology
        self._models: dict[str, ComponentModel] = {}
        for spec in topology.components.values():
            model = components.get(spec.name)
            if model is None:
                if not spec.is_spout:
                    raise ModelError(
                        f"no component model provided for bolt {spec.name!r}"
                    )
                model = _identity_spout_model(topology, spec.name, spec.parallelism)
            if model.parallelism != spec.parallelism:
                raise ModelError(
                    f"model for {spec.name!r} has parallelism "
                    f"{model.parallelism}, topology says {spec.parallelism}"
                )
            self._models[spec.name] = model

    def component(self, name: str) -> ComponentModel:
        """The model for one component."""
        try:
            return self._models[name]
        except KeyError:
            raise ModelError(f"no model for component {name!r}") from None

    # ------------------------------------------------------------------
    # Path utilities
    # ------------------------------------------------------------------
    def _stream_between(self, source: str, destination: str) -> str:
        streams = [
            s.name
            for s in self.topology.outputs(source)
            if s.destination == destination
        ]
        if not streams:
            raise ModelError(f"no stream from {source!r} to {destination!r}")
        return streams[0]

    def _validate_path(self, path: Sequence[str]) -> None:
        if len(path) < 1:
            raise ModelError("path must contain at least one component")
        if not self.topology.component(path[0]).is_spout:
            raise ModelError(f"path must start at a spout, got {path[0]!r}")
        for source, destination in zip(path, path[1:]):
            self._stream_between(source, destination)

    # ------------------------------------------------------------------
    # Eq. 12: forward chain
    # ------------------------------------------------------------------
    def critical_path_output(
        self, path: Sequence[str], source_rate: float
    ) -> float:
        """Eq. 12: the path's output rate for a given source rate.

        ``path`` is a spout-to-sink component sequence; ``source_rate``
        is :math:`t_0`, the topology source throughput.  The returned
        value is the final component's processing throughput — for a
        sink that is the topology's output throughput (the metric
        Fig. 10 plots).
        """
        self._validate_path(path)
        if source_rate < 0:
            raise ModelError("source_rate must be non-negative")
        rate = source_rate
        for stage, name in enumerate(path):
            model = self._models[name]
            if stage + 1 < len(path):
                stream = self._stream_between(name, path[stage + 1])
                rate = model.output_rate(rate, stream)
            else:
                rate = model.processed_rate(rate)
        return rate

    # ------------------------------------------------------------------
    # Eq. 13: saturation point
    # ------------------------------------------------------------------
    def path_bottleneck(self, path: Sequence[str]) -> tuple[str | None, float]:
        """The first component to saturate, and the source rate at which.

        Uses the linear amplification factors along the path: stage ``k``
        saturates when the source rate reaches ``SP_k / L_k`` where
        ``L_k`` is the product of upstream alphas.  Returns
        ``(None, inf)`` when nothing on the path can saturate.
        """
        self._validate_path(path)
        factor = 1.0
        best_name: str | None = None
        best_rate = math.inf
        for stage, name in enumerate(path):
            model = self._models[name]
            sp = model.saturation_point()
            if not math.isinf(sp):
                at_source = sp / factor
                if at_source < best_rate:
                    best_rate = at_source
                    best_name = name
            if stage + 1 < len(path):
                stream = self._stream_between(name, path[stage + 1])
                factor *= model.instance.alpha(stream)
        return best_name, best_rate

    # ------------------------------------------------------------------
    # Eq. 14: backpressure risk
    # ------------------------------------------------------------------
    def backpressure_risk(
        self,
        path: Sequence[str],
        source_rate: float,
        threshold: float = 0.9,
    ) -> RiskAssessment:
        """Eq. 14: classify backpressure risk for a source rate.

        Risk is HIGH when the source rate is within ``threshold`` of the
        topology's saturation source rate (the paper's
        :math:`t_0' \\sim t_0`), LOW otherwise.
        """
        if not 0.0 < threshold <= 1.0:
            raise ModelError("threshold must be in (0, 1]")
        if source_rate < 0:
            raise ModelError("source_rate must be non-negative")
        bottleneck, saturation_rate = self.path_bottleneck(path)
        high = (
            not math.isinf(saturation_rate)
            and source_rate >= threshold * saturation_rate
        )
        return RiskAssessment(
            risk=BackpressureRisk.HIGH if high else BackpressureRisk.LOW,
            source_rate=source_rate,
            saturation_source_rate=saturation_rate,
            bottleneck=bottleneck if high else bottleneck,
        )

    # ------------------------------------------------------------------
    # Whole-DAG propagation (extension beyond the single path)
    # ------------------------------------------------------------------
    def propagate(
        self, source_rates: Mapping[str, float]
    ) -> dict[str, dict[str, object]]:
        """Push source rates through the whole DAG.

        Parameters
        ----------
        source_rates:
            Spout name → external source rate.  Every spout must appear.

        Returns
        -------
        Component name → ``{"input", "processed", "outputs", "saturated"}``
        where ``outputs`` maps stream names to rates.  Downstream inputs
        follow Storm/Heron stream semantics: every subscriber of a stream
        receives the full stream rate.
        """
        for spout in self.topology.spouts():
            if spout.name not in source_rates:
                raise ModelError(f"missing source rate for spout {spout.name!r}")
        inputs: dict[str, float] = {name: 0.0 for name in self.topology.components}
        for name, rate in source_rates.items():
            if not self.topology.component(name).is_spout:
                raise ModelError(f"{name!r} is not a spout")
            if rate < 0:
                raise ModelError("source rates must be non-negative")
            inputs[name] = float(rate)
        report: dict[str, dict[str, object]] = {}
        for spec in self.topology.topological_order():
            model = self._models[spec.name]
            incoming = inputs[spec.name]
            processed = model.processed_rate(incoming)
            outputs: dict[str, float] = {}
            for stream in self.topology.outputs(spec.name):
                rate = model.output_rate(incoming, stream.name)
                outputs[stream.name] = rate
                inputs[stream.destination] += rate
            report[spec.name] = {
                "input": float(incoming),
                "processed": float(processed),
                "outputs": {k: float(v) for k, v in outputs.items()},
                "saturated": bool(model.is_saturated(incoming)),
            }
        return report

    def with_parallelism(
        self,
        changes: Mapping[str, int],
        new_shares: Mapping[str, Sequence[float]] | None = None,
    ) -> "TopologyModel":
        """The topology model after proposed parallelism changes.

        This is the model-side counterpart of ``heron update --dry-run``:
        component curves scale per Eq. 9, and the updated topology's
        saturation point and risk can be evaluated without deployment.
        ``new_shares`` supplies fields-grouping share vectors for any
        biased component being rescaled.
        """
        new_shares = new_shares or {}
        updated_topology = self.topology.with_parallelism(changes)
        updated_models: dict[str, ComponentModel] = {}
        for name, model in self._models.items():
            if name in changes:
                updated_models[name] = model.with_parallelism(
                    changes[name], new_shares.get(name)
                )
            else:
                updated_models[name] = model
        return TopologyModel(updated_topology, updated_models)


def _identity_spout_model(
    topology: LogicalTopology, name: str, parallelism: int
) -> ComponentModel:
    """A pass-through model for spouts: alpha 1 on every output stream."""
    alphas = {s.name: 1.0 for s in topology.outputs(name)}
    return ComponentModel(
        name, InstanceModel(alphas, math.inf), parallelism
    )
