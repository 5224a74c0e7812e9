"""The topology throughput model (paper Eq. 12-14).

A topology's throughput is limited by its *critical path*.  With a model
for every component on the path, the path's output is the chain of
component models (Eq. 12); inverting the chain locates the topology's
saturation point — the source rate at which backpressure will start
(Eq. 13) — and comparing it with the current or forecast source rate
classifies backpressure risk (Eq. 14).

A :class:`TopologyModel` is *compiled once per calibration*: topological
order, every component's outgoing edges, the source→sink path set and
the stream taken between consecutive path stages are fixed when it is
built and shared by every plan derived from it
(:meth:`TopologyModel.with_parallelism`, an overlay of rescaled
component models drawn from one bounded memo).  A request is then one
:meth:`TopologyModel.evaluate`: the whole DAG walked in topological order
(the paper's suggestion for topologies whose critical path "cannot be
identified easily") and every path chained, each ``(component, input
rate)`` pair reduced once.  Whatever a performance model reports, it
reads off that :class:`Evaluation`.
"""

from __future__ import annotations

import copy
import math
import threading
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.core.component_model import ComponentModel
from repro.core.instance_model import InstanceModel
from repro.durability.deadline import check_deadline
from repro.errors import ModelError
from repro.graph.topology_graph import source_sink_paths
from repro.heron.groupings import ShuffleGrouping
from repro.heron.topology import LogicalTopology

__all__ = [
    "BackpressureRisk",
    "Evaluation",
    "PathEvaluation",
    "RiskAssessment",
    "TopologyModel",
    "grouping_input_shares",
]

#: Instances (share-vector entries) the rescaled-component memo of one
#: calibration may hold: 512 KiB of arrays, oldest entries dropped first.
_MEMO_INSTANCES = 1 << 16

#: ``(component, input rate) -> (processed, {stream: output rate})``.
_Stage = Callable[[str, float], tuple[float, dict[str, float]]]


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


@dataclass(frozen=True)
class PathEvaluation:
    """One source→sink path, chained at one per-spout source rate.

    ``output_rate`` is Eq. 12 (the last component's processed rate),
    ``bottleneck`` / ``saturation_source_rate`` Eq. 13 (``None`` / ``inf``
    when nothing on the path can saturate); ``saturated[k]`` says whether
    stage ``k`` was at or past its saturation point at the rate the chain
    offered it.
    """

    path: tuple[str, ...]
    output_rate: float
    bottleneck: str | None
    saturation_source_rate: float
    saturated: tuple[bool, ...]

    def risk(self, source_rate: float, threshold: float = 0.9) -> RiskAssessment:
        """Eq. 14: HIGH when ``source_rate`` is within ``threshold`` of the
        path's saturation source rate (the paper's :math:`t_0' \\sim t_0`)."""
        if not 0.0 < threshold <= 1.0:
            raise ModelError("threshold must be in (0, 1]")
        high = (
            not math.isinf(self.saturation_source_rate)
            and source_rate >= threshold * self.saturation_source_rate
        )
        return RiskAssessment(
            BackpressureRisk.HIGH if high else BackpressureRisk.LOW,
            source_rate,
            self.saturation_source_rate,
            self.bottleneck,
        )


@dataclass(frozen=True)
class Evaluation:
    """One pass over a planned topology at one topology source rate.

    ``share`` is the per-spout rate (the topology rate divides evenly
    over spouts, the evaluation-spout convention); path figures are in
    per-spout units.  ``components`` is :meth:`TopologyModel.propagate`'s
    report; ``paths`` follows the compiled path order.
    """

    source_rate: float
    share: float
    spouts: int
    parallelisms: dict[str, int]
    components: dict[str, dict[str, object]]
    sinks: tuple[str, ...]
    paths: tuple[PathEvaluation, ...]

    @property
    def worst(self) -> PathEvaluation:
        """The path that saturates first (the first of equals)."""
        return min(self.paths, key=lambda path: path.saturation_source_rate)


def grouping_input_shares(
    topology: LogicalTopology, component: str, parallelism: int
) -> Sequence[float] | None:
    """Share vector for a component's instances at a given parallelism.

    Derived from the incoming stream's grouping.  Shuffle (and any
    grouping without share structure) returns ``None`` (uniform).  With
    several input streams the shares would be a rate-weighted mixture;
    uniform is used as the paper's load-balanced approximation.
    """
    inputs = topology.inputs(component)
    if len(inputs) != 1:
        return None
    grouping = inputs[0].grouping
    if isinstance(grouping, ShuffleGrouping):
        return None
    shares = grouping.shares(parallelism)
    total = float(np.sum(shares))
    if total <= 0:
        return None
    return list(shares / total)


class TopologyModel:
    """Chained component models over a topology DAG.

    Parameters
    ----------
    topology:
        The logical topology (provides the DAG structure and stream
        names; a plan derived by :meth:`with_parallelism` keeps it, so
        parallelisms are read from :meth:`parallelisms`, not from it).
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
        # Everything below depends on the calibration alone: the plans
        # derived from this model share it, and rescale through
        # ``_base`` (this model; ``None`` here, so it is no cycle).
        self._base: TopologyModel | None = None
        self._order = tuple(spec.name for spec in topology.topological_order())
        self._edges = {
            name: tuple((s.name, s.destination) for s in topology.outputs(name))
            for name in self._order
        }
        self._streams = {
            name: tuple(dict.fromkeys(stream for stream, _ in edges))
            for name, edges in self._edges.items()
        }
        self._spouts = tuple(spec.name for spec in topology.spouts())
        self._sinks = tuple(spec.name for spec in topology.sinks())
        self.paths = tuple(tuple(path) for path in source_sink_paths(topology))
        self._path_streams = tuple(
            tuple(map(self._stream_between, path, path[1:])) for path in self.paths
        )
        self._memo: dict[tuple[str, int], ComponentModel] = {}
        self._memo_instances = 0
        self._memo_lock = threading.Lock()

    def component(self, name: str) -> ComponentModel:
        """The model for one component."""
        try:
            return self._models[name]
        except KeyError:
            raise ModelError(f"no model for component {name!r}") from None

    def parallelisms(self) -> dict[str, int]:
        """Component name → the parallelism this (planned) model is at."""
        return {name: model.parallelism for name, model in self._models.items()}

    # ------------------------------------------------------------------
    # Proposed plans (Eq. 9)
    # ------------------------------------------------------------------
    def rescaled(self, name: str, parallelism: int) -> ComponentModel:
        """The calibrated ``name`` at another parallelism, memoised.

        The one place a component curve is rescaled: predictions, the
        sweep kernel's plan groups and its CPU estimate all draw from
        this memo, so equal ``(component, parallelism)`` pairs share one
        model (and one share vector) for the calibration's lifetime.
        Grouping-induced shares are recomputed from the logical topology
        for the new instance count.
        """
        base = self._base or self  # a plan's memo is its calibrated model's
        calibrated = base._models.get(name)
        if calibrated is None:
            raise ModelError(f"no model for component {name!r}")
        if parallelism == calibrated.parallelism:
            return calibrated
        key = (name, parallelism)
        model = base._memo.get(key)  # atomic; only writers take the lock
        if model is None:
            model = calibrated.with_parallelism(
                parallelism,
                grouping_input_shares(self.topology, name, parallelism),
            )
            with base._memo_lock:
                if key not in base._memo:
                    base._memo[key] = model
                    base._memo_instances += parallelism
                    while base._memo_instances > _MEMO_INSTANCES:
                        oldest = next(iter(base._memo))
                        base._memo_instances -= base._memo.pop(oldest).parallelism
        return model

    def with_parallelism(self, changes: Mapping[str, int]) -> "TopologyModel":
        """The topology model under proposed parallelism changes.

        This is the model-side counterpart of ``heron update --dry-run``:
        component curves scale per Eq. 9, and the plan's saturation point
        and risk can be evaluated without deployment.  The plan is an
        overlay — it shares this model's compiled structure and memo and
        rebuilds no topology.
        """
        if not changes:
            return self
        planned = copy.copy(self)
        planned._base = self._base or self
        planned._models = {
            **self._models,
            **{name: self.rescaled(name, p) for name, p in changes.items()},
        }
        return planned

    # ------------------------------------------------------------------
    # The one pass
    # ------------------------------------------------------------------
    def _stages(self) -> _Stage:
        """Eq. 6-7 per ``(component, input rate)``, reduced once for one
        evaluation.

        Processed and per-stream output rates are the
        ``alpha * min(shares * rate, SP)`` reductions of
        :class:`ComponentModel`, so the sweep kernel — which stacks plans
        into a matrix and reduces along the instance axis — produces
        bitwise identical sums.  Two steps are skipped where they change
        no bit: clipping at an infinite saturation point, and scaling by
        an alpha of exactly one (every spout's, in both cases).
        """
        seen: dict[tuple[str, float], tuple[float, dict[str, float]]] = {}

        def stage(name: str, rate: float) -> tuple[float, dict[str, float]]:
            found = seen.get((name, rate))
            if found is None:
                model = self._models[name]
                instance = model.instance
                clipped = model.input_shares * rate
                if instance.saturation_point != math.inf:
                    clipped = np.minimum(clipped, instance.saturation_point)
                processed = float(clipped.sum())
                outputs = {}
                for stream in self._streams[name]:
                    alpha = instance.alpha(stream)
                    outputs[stream] = (
                        processed if alpha == 1.0
                        else float((alpha * clipped).sum())
                    )
                found = seen[name, rate] = (processed, outputs)
            return found

        return stage

    def _walk(
        self, inputs: dict[str, float], stage: _Stage
    ) -> dict[str, dict[str, object]]:
        report: dict[str, dict[str, object]] = {}
        for name in self._order:
            incoming = inputs[name]
            processed, outputs = stage(name, incoming)
            for stream, destination in self._edges[name]:
                inputs[destination] += outputs[stream]
            report[name] = {
                "input": incoming,
                "processed": processed,
                "outputs": outputs,
                "saturated": incoming >= self._models[name].saturation_point(),
            }
        return report

    def _chain(
        self,
        path: tuple[str, ...],
        streams: tuple[str, ...],
        source_rate: float,
        stage: _Stage,
    ) -> PathEvaluation:
        """Eq. 12 and 13 along one path.

        Stage ``k`` saturates when the source rate reaches ``SP_k / L_k``
        where ``L_k`` is the product of upstream alphas; a stage behind a
        zero alpha is never reached, so never saturated from the source.
        """
        rate, factor = source_rate, 1.0
        bottleneck, saturation = None, math.inf
        saturated = []
        for k, name in enumerate(path):
            model = self._models[name]
            sp = model.saturation_point()
            saturated.append(rate >= sp)
            if factor > 0 and not math.isinf(sp):
                at_source = sp / factor
                if at_source < saturation:
                    bottleneck, saturation = name, at_source
            processed, outputs = stage(name, rate)
            if k < len(streams):
                rate = outputs[streams[k]]
                factor *= model.instance.alpha(streams[k])
            else:
                rate = processed
        return PathEvaluation(path, rate, bottleneck, saturation, tuple(saturated))

    def evaluate(self, source_rate: float) -> Evaluation:
        """Everything the performance models report, in one pass.

        ``source_rate`` is the topology's; it divides evenly over the
        spouts.  ``check_deadline`` stays a per-path scheduling point.
        """
        if source_rate < 0:
            raise ModelError("source_rate must be non-negative")
        share = source_rate / len(self._spouts)
        stage = self._stages()
        inputs = dict.fromkeys(self._order, 0.0)
        inputs.update(dict.fromkeys(self._spouts, float(share)))
        components = self._walk(inputs, stage)
        paths = []
        for path, streams in zip(self.paths, self._path_streams):
            check_deadline()
            paths.append(self._chain(path, streams, share, stage))
        return Evaluation(
            source_rate, share, len(self._spouts), self.parallelisms(),
            components, self._sinks, tuple(paths),
        )

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
        for spout in self._spouts:
            if spout not in source_rates:
                raise ModelError(f"missing source rate for spout {spout!r}")
        inputs = dict.fromkeys(self._order, 0.0)
        for name, rate in source_rates.items():
            if name not in self._spouts:
                raise ModelError(f"{name!r} is not a spout")
            if rate < 0:
                raise ModelError("source rates must be non-negative")
            inputs[name] = float(rate)
        return self._walk(inputs, self._stages())

    def _stream_between(self, source: str, destination: str) -> str:
        """The first declared stream from ``source`` to ``destination``."""
        return next(s for s, target in self._edges[source] if target == destination)


def _identity_spout_model(
    topology: LogicalTopology, name: str, parallelism: int
) -> ComponentModel:
    """A pass-through model for spouts: alpha 1 on every output stream."""
    alphas = {s.name: 1.0 for s in topology.outputs(name)}
    return ComponentModel(
        name, InstanceModel(alphas, math.inf), parallelism
    )
