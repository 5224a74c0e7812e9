"""Properties of the chained prediction, over random topologies.

Hypothesis draws small chain, diamond, fan-in and multi-spout topologies
(named streams among them) with random calibrated parameters (alphas,
saturation points, groupings) and random plan sets, then demands

* the vectorized kernel reproduce the serial path's predictions
  byte-for-byte;
* the one pass agree with a chain walked here, stage by stage, through
  freshly rescaled :class:`ComponentModel` s (no memo, no compiled
  structure) — Eq. 12-13 as the paper writes them;
* what the model claims about itself: the chained output never falls
  when traffic or a shuffle-grouped parallelism rises, never exceeds any
  stage's ``min(alpha t, ST)`` bound, and both performance models name
  the same worst path.

Alphas stay strictly positive here; what a zero alpha does to the
bottleneck chain is pinned by a dedicated test below.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.component_model import ComponentModel
from repro.core.calibration import PiecewiseLinearFit
from repro.core.calibration_cache import Calibration
from repro.core.instance_model import InstanceModel
from repro.core.performance_models import (
    BackpressureEvaluationModel,
    ThroughputPredictionModel,
    evaluate_throughput,
    grouping_input_shares,
)
from repro.core.topology_model import TopologyModel
from repro.graph.topology_graph import source_sink_paths
from repro.heron.groupings import (
    FieldsGrouping,
    KeyDistribution,
    ShuffleGrouping,
)
from repro.heron.topology import TopologyBuilder
from repro.heron.tracker import TrackedTopology
from repro.serving.fingerprint import canonical_json
from repro.sweep import evaluate_plans


def _calibration(topology, base, fits) -> Calibration:
    """A calibration of ``topology`` made up of ``base`` and ``fits``
    (no packing: evaluating a plan reads none)."""
    tracked = TrackedTopology(topology, None, "local", "test", 0)
    return Calibration(tracked, 0, None, base, fits, {})


alphas = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)
sps = st.one_of(
    st.just(math.inf),
    st.floats(min_value=1e3, max_value=1e9, allow_nan=False),
)
parallelisms = st.integers(min_value=1, max_value=5)
#: Absolute slack beside the relative ``1e-12``: a source rate such as
#: ``2.2e-313`` keeps the chain in the subnormal floats, whose rounding
#: steps are absolute, not relative.
TINY = sys.float_info.min
groupings = st.one_of(
    st.just(None),  # shuffle
    st.floats(min_value=0.0, max_value=2.0).map(
        lambda e: KeyDistribution.zipf([f"k{i}" for i in range(8)], e)
    ),
)

#: shape -> (spouts, bolts, (source, destination, stream) edges).
SHAPES = {
    "diamond": (
        ["spout"], ["left", "right", "join"],
        [("spout", "left", "default"), ("spout", "right", "default"),
         ("left", "join", "default"), ("right", "join", "default")],
    ),
    "fanin": (
        ["orders", "clicks"], ["clean_orders", "clean_clicks", "join"],
        [("orders", "clean_orders", "default"),
         ("clicks", "clean_clicks", "default"),
         ("clean_orders", "join", "default"),
         ("clean_clicks", "join", "default")],
    ),
    # Three spouts into a router with two named streams; ``billing`` also
    # feeds the archive directly (a second, shorter path to that sink).
    "multi_spout": (
        ["events", "logs", "billing"], ["router", "agg", "archive"],
        [("events", "router", "default"), ("logs", "router", "default"),
         ("billing", "router", "default"), ("router", "agg", "hot"),
         ("router", "archive", "cold"), ("billing", "archive", "default")],
    ),
}


@st.composite
def topologies(draw):
    """A chain (spout -> b0 -> ... -> bK), diamond, fan-in or multi-spout
    shaped topology, with a synthetic calibration artifact around it."""
    shape = draw(st.sampled_from(["chain", *SHAPES]))
    if shape == "chain":
        depth = draw(st.integers(min_value=1, max_value=3))
        spouts, bolts = ["spout"], [f"b{i}" for i in range(depth)]
        edges = [("spout", bolts[0], "default")] + [
            (bolts[i], bolts[i + 1], "default") for i in range(depth - 1)
        ]
    else:
        spouts, bolts, edges = SHAPES[shape]
    builder = TopologyBuilder("prop")
    for name in spouts:
        builder.add_spout(name, draw(parallelisms))
    for name in bolts:
        builder.add_bolt(name, draw(parallelisms))
    for source, dest, stream in edges:
        distribution = draw(groupings)
        grouping = (
            ShuffleGrouping()
            if distribution is None
            else FieldsGrouping(["key"], distribution)
        )
        builder.connect(source, dest, grouping, stream)
    topology = builder.build()

    components = {}
    fits = {}
    for name in bolts:
        spec = topology.components[name]
        out_streams = {s.name for s in topology.outputs(name)}
        instance_sp = draw(sps)
        components[name] = ComponentModel(
            name,
            InstanceModel(
                {stream: draw(alphas) for stream in sorted(out_streams)},
                instance_sp,
            ),
            spec.parallelism,
            grouping_input_shares(topology, name, spec.parallelism),
        )
        fits[name] = PiecewiseLinearFit(
            alpha=draw(alphas),
            saturation_point=(
                instance_sp * spec.parallelism
                if math.isfinite(instance_sp)
                else math.inf
            ),
            residual_std=draw(
                st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
            ),
            alpha_stderr=draw(
                st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
            ),
            r_squared=0.99,
            n_points=10,
        )
    base = TopologyModel(topology, components)
    artifact = _calibration(topology, base, fits)
    plans = draw(
        st.lists(
            st.dictionaries(st.sampled_from(bolts), parallelisms, max_size=3),
            min_size=1,
            max_size=6,
        )
    )
    rate = draw(st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
    return artifact, rate, plans


relaxed = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(topologies())
@relaxed
def test_batch_equals_serial_on_random_topologies(case):
    artifact, rate, plans = case
    batch = evaluate_plans(artifact, rate, plans)
    for plan, prediction in zip(plans, batch):
        reference = evaluate_throughput(
            artifact.tracked.name,
            artifact.model_for_plan(artifact.validate_plan(plan)),
            artifact.fits,
            rate,
        )
        assert canonical_json(prediction.as_dict()) == canonical_json(
            reference.as_dict()
        )


# ----------------------------------------------------------------------
# The chain, walked here: Eq. 12-13 stage by stage
# ----------------------------------------------------------------------
def rescaled_components(artifact, plan) -> dict[str, ComponentModel]:
    """Every component at the plan's parallelism, rescaled afresh."""
    topology, base = artifact.tracked.topology, artifact.base
    return {
        name: base.component(name).with_parallelism(
            plan[name], grouping_input_shares(topology, name, plan[name])
        )
        if name in plan
        else base.component(name)
        for name in topology.components
    }


def walked_paths(artifact, plan, share):
    """Per source->sink path: the rate entering each stage, the chained
    output, and the first-to-saturate stage with its source rate."""
    topology = artifact.tracked.topology
    components = rescaled_components(artifact, plan)
    walked = []
    for path in source_sink_paths(topology):
        rate, factor = share, 1.0
        entering, bottleneck, saturation = [], None, math.inf
        for stage, name in enumerate(path):
            model = components[name]
            entering.append(rate)
            sp = model.saturation_point()
            if not math.isinf(sp) and sp / factor < saturation:  # first wins
                bottleneck, saturation = name, sp / factor
            if stage + 1 < len(path):
                stream = next(
                    s.name for s in topology.outputs(name)
                    if s.destination == path[stage + 1]
                )
                rate = model.output_rate(rate, stream)
                factor *= model.instance.alpha(stream)
            else:
                rate = model.processed_rate(rate)
        walked.append((tuple(path), entering, rate, bottleneck, saturation))
    return components, walked


@given(topologies())
@relaxed
def test_one_pass_equals_the_chain_walked_stage_by_stage(case):
    artifact, rate, plans = case
    spouts = len(artifact.tracked.topology.spouts())
    for plan in plans:
        evaluation = artifact.model_for_plan(plan).evaluate(rate)
        components, walked = walked_paths(artifact, plan, rate / spouts)
        assert evaluation.parallelisms == {
            name: model.parallelism for name, model in components.items()
        }
        assert [
            (p.path, p.output_rate, p.bottleneck, p.saturation_source_rate)
            for p in evaluation.paths
        ] == [(path, out, b, sat) for path, _, out, b, sat in walked]
        for chained, (path, entering, *_) in zip(evaluation.paths, walked):
            assert chained.saturated == tuple(
                components[name].is_saturated(x)
                for name, x in zip(path, entering)
            )
        # The first of the equally-worst paths is the worst one.
        worst = min(walked, key=lambda w: w[4])
        assert evaluation.worst.path == worst[0]


@given(topologies())
@relaxed
def test_chained_output_stays_under_every_stage_bound(case):
    """No path delivers more than any of its stages can pass on:
    ``min(alpha t, ST)`` of stage ``k``, amplified by the alphas behind it."""
    artifact, rate, plans = case
    topology = artifact.tracked.topology
    spouts = len(topology.spouts())
    for plan in plans:
        components, walked = walked_paths(artifact, plan, rate / spouts)
        evaluation = artifact.model_for_plan(plan).evaluate(rate)
        for chained, (path, entering, *_) in zip(evaluation.paths, walked):
            bound = math.inf  # on what leaves the stage before
            for name, nxt, offered in zip(path, [*path[1:], None], entering):
                model = components[name]
                alpha = 1.0 if nxt is None else model.instance.alpha(next(
                    s.name for s in topology.outputs(name) if s.destination == nxt
                ))
                capacity = model.instance.saturation_point * int(
                    np.count_nonzero(model.input_shares)
                )
                bound = alpha * min(bound, offered, capacity)
            assert chained.output_rate <= bound * (1 + 1e-12) + TINY


@given(topologies(), st.floats(min_value=1.0, max_value=4.0), st.data())
@relaxed
def test_chained_output_never_falls_when_traffic_or_parallelism_rises(
    case, growth, data
):
    artifact, rate, plans = case
    topology = artifact.tracked.topology

    def outputs(plan, at):
        prediction = evaluate_throughput(
            "prop", artifact.model_for_plan(plan), artifact.fits, at
        )
        return [prediction.output_rate] + [
            path["output_rate"] for path in prediction.paths
        ]

    def never_falls(before, after):
        assert all(b <= a * (1 + 1e-12) + TINY for b, a in zip(before, after))

    plan = artifact.plan_parallelisms(plans[0])
    never_falls(outputs(plan, rate), outputs(plan, rate * growth))
    # Re-hashing keys over more instances can concentrate them: only a
    # component whose instances share its input evenly is sure to gain.
    uniform = [
        name for name in plan
        if grouping_input_shares(topology, name, plan[name] + 1) is None
    ]
    grown = data.draw(st.sampled_from(uniform))
    never_falls(
        outputs(plan, rate), outputs({**plan, grown: plan[grown] + 1}, rate)
    )


@given(topologies())
@relaxed
def test_both_models_name_the_same_worst_path(case):
    artifact, rate, plans = case
    throughput = ThroughputPredictionModel(None, None)
    backpressure = BackpressureEvaluationModel(None, None)
    for plan in plans:
        evaluation = artifact.model_for_plan(plan).evaluate(rate)
        told = throughput.render("prop", evaluation, artifact.fits)
        risk = backpressure.render("prop", evaluation, artifact.fits)
        assert (
            risk.saturation_source_rate, risk.bottleneck, risk.backpressure_risk
        ) == (
            told.saturation_source_rate, told.bottleneck, told.backpressure_risk
        )
        assert [p["path"] for p in risk.paths] == [p["path"] for p in told.paths]
        assert [
            p["saturation_source_rate"] for p in risk.paths
        ] == [p["saturation_source_rate"] * evaluation.spouts for p in told.paths]
        if math.isfinite(told.saturation_source_rate):
            (worst,) = [
                p for p in told.paths
                if p["path"] == list(evaluation.worst.path)
            ]
            assert risk.output_rate == worst["output_rate"]
            assert worst["saturation_source_rate"] == min(
                p["saturation_source_rate"] for p in told.paths
            )


def _zero_alpha_case(mid_sp):
    builder = TopologyBuilder("zero")
    builder.add_spout("spout", 1)
    builder.add_bolt("mid", 1)
    builder.add_bolt("sink", 1)
    builder.connect("spout", "mid", ShuffleGrouping())
    builder.connect("mid", "sink", ShuffleGrouping())
    topology = builder.build()
    components = {
        "mid": ComponentModel("mid", InstanceModel({"default": 0.0}, mid_sp), 1),
        "sink": ComponentModel("sink", InstanceModel({}, 1e3), 1),
    }
    base = TopologyModel(topology, components)
    fits = {
        name: PiecewiseLinearFit(0.0 if name == "mid" else 1.0, 1e6,
                                 0.0, 0.0, 1.0, 10)
        for name in ("mid", "sink")
    }
    artifact = _calibration(topology, base, fits)
    serial = evaluate_throughput("zero", artifact.model_for_plan({}), fits, 1e5)
    (batch,) = evaluate_plans(artifact, 1e5, [{}])
    assert canonical_json(batch.as_dict()) == canonical_json(serial.as_dict())
    return serial


def test_zero_alpha_divide_parity():
    """A zero mid-chain alpha (a stream that emits nothing) used to break
    the serial bottleneck chain with a ZeroDivisionError, which the kernel
    reproduced.  A stage nothing reaches cannot be saturated from the
    source: both skip it, and give this answer."""
    # ``mid`` itself can saturate; the sink behind it (SP 1e3) cannot.
    answer = _zero_alpha_case(mid_sp=1e6)
    assert (answer.bottleneck, answer.saturation_source_rate) == ("mid", 1e6)
    assert (answer.output_rate, answer.backpressure_risk) == (0.0, "low")
    answer = _zero_alpha_case(mid_sp=math.inf)
    assert (answer.bottleneck, answer.saturation_source_rate) == (None, math.inf)
    assert (answer.output_rate, answer.backpressure_risk) == (0.0, "low")
