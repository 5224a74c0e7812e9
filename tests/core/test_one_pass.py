"""One compiled model per calibration, one memo, one pass per request.

What ``tests/sweep/test_property.py`` shows on synthetic calibrations is
held here against a calibrated service: concurrent requests with distinct
plans get the serial answers, a new data version or plan revision gets a
fresh compile (and so an empty memo), the memo is bounded — and the
checks that say so fail on the mutants they exist to catch.
"""

from __future__ import annotations

import gc
import inspect
import sys
import textwrap
import threading
import weakref

import pytest
from hypothesis import Phase, given, settings

import repro.core.topology_model as topology_model
from repro.api.app import CaladriusApp
from repro.config import load_config
from repro.core.component_model import ComponentModel
from repro.core.instance_model import InstanceModel
from repro.core.performance_models import (
    BackpressureEvaluationModel,
    PerformanceModel,
    ThroughputPredictionModel,
    calibrate_topology,
    evaluate_throughput,
)
from repro.core.topology_model import TopologyModel
from repro.errors import ModelError
from repro.heron.groupings import ShuffleGrouping
from repro.heron.topology import TopologyBuilder
from repro.serving.fingerprint import canonical_json

from tests.sweep import test_property as generated

M = 1e6
PREDICT = "/model/topology/heron/word-count"
PLANS = [
    {"splitter": s, "counter": c} for s in range(1, 9) for c in range(1, 9)
]


def _app(deployed_wordcount, serving: bool = True) -> CaladriusApp:
    _, _, _, store, tracker = deployed_wordcount
    config = load_config({"serving": {"enabled": serving}})
    return CaladriusApp(config, tracker, store)


def _ask(app, plan, rate):
    status, payload = app.handle(
        "POST", PREDICT, {}, {"source_rate": rate, "parallelisms": plan}
    )
    assert status == 200, payload
    return canonical_json(payload)


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
def test_eight_threads_of_distinct_plans_get_the_serial_answers(
    deployed_wordcount, monkeypatch
):
    # A memo this small evicts while other threads read it.
    monkeypatch.setattr(topology_model, "_MEMO_INSTANCES", 24)
    requests = [(plan, (20 + i % 7) * M) for i, plan in enumerate(PLANS)]
    serial_app = _app(deployed_wordcount, serving=False)
    try:
        serial = [_ask(serial_app, plan, rate) for plan, rate in requests]
    finally:
        serial_app.shutdown()

    app = _app(deployed_wordcount, serving=False)
    answers: dict[int, list[str]] = {}
    failures: list[BaseException] = []

    def worker(offset: int) -> None:
        try:
            # Every thread asks everything, each from its own start.
            got = {}
            for step in range(len(requests)):
                index = (offset * 8 + step) % len(requests)
                got[index] = _ask(app, *requests[index])
            answers[offset] = [got[index] for index in range(len(requests))]
        except BaseException as exc:  # surfaced below, on the test's thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        app.shutdown()
    assert failures == []
    assert sorted(answers) == list(range(8))
    for got in answers.values():
        assert got == serial
    base = app.calibrations.get("word-count").base
    assert 0 < sum(m.parallelism for m in base._memo.values()) <= 24
    assert base._memo_instances == sum(m.parallelism for m in base._memo.values())


# ----------------------------------------------------------------------
# Lifetime: the compiled model and its memo die with the stamp
# ----------------------------------------------------------------------
def test_a_write_or_a_redeploy_gets_a_fresh_compile(deployed_wordcount):
    topology, packing, _, store, tracker = deployed_wordcount
    app = _app(deployed_wordcount)
    try:
        _ask(app, {"splitter": 5}, 20 * M)
        first = app.calibrations.get("word-count").base
        assert list(first._memo) == [("splitter", 5)]
        _ask(app, {"splitter": 5, "counter": 2}, 21 * M)
        assert app.calibrations.get("word-count").base is first  # same stamp
        assert list(first._memo) == [("splitter", 5), ("counter", 2)]

        store.write("probe", 60, 1.0, {"topology": "word-count"})
        _ask(app, {"counter": 3}, 20 * M)
        second = app.calibrations.get("word-count").base
        assert second is not first
        assert list(second._memo) == [("counter", 3)]

        tracker.update("word-count", topology, packing)  # a new revision
        _ask(app, {"splitter": 4}, 20 * M)
        third = app.calibrations.get("word-count").base
        assert third is not second
        assert list(third._memo) == [("splitter", 4)]
    finally:
        app.shutdown()


def test_the_memo_is_bounded_by_instances_oldest_out_first(
    deployed_wordcount, monkeypatch
):
    monkeypatch.setattr(topology_model, "_MEMO_INSTANCES", 100)
    app = _app(deployed_wordcount)
    try:
        base = app.calibrations.get("word-count").base
        for parallelism in range(10, 40):
            assert base.rescaled("splitter", parallelism).parallelism == parallelism
        assert list(base._memo) == [("splitter", 38), ("splitter", 39)]
        assert base._memo_instances == 38 + 39
        # The calibrated parallelism is the calibrated model, memo or no memo.
        assert base.rescaled("splitter", 2) is base.component("splitter")
        assert base.rescaled("splitter", 39) is base.rescaled("splitter", 39)
        # A plan rescales through the calibrated model: one memo, one count.
        planned = base.with_parallelism({"counter": 9})
        assert planned.with_parallelism({"splitter": 40}).parallelisms() == {
            "sentence-spout": 4, "splitter": 40, "counter": 9,
        }
        assert list(base._memo) == [
            ("splitter", 39), ("counter", 9), ("splitter", 40)
        ]
        assert base._memo_instances == 39 + 9 + 40
    finally:
        app.shutdown()


def test_a_superseded_compile_is_freed_without_the_cyclic_collector(
    deployed_wordcount,
):
    """A calibration is replaced at every write; what it compiled (and
    memoised) must go with its last reference, not wait for a gen-2 pass."""
    _, _, _, store, tracker = deployed_wordcount
    gc.collect()
    gc.disable()
    try:
        model, fits = calibrate_topology(tracker.get("word-count"), store)
        planned = model.with_parallelism({"splitter": 7}).with_parallelism({"counter": 3})
        evaluate_throughput("word-count", planned, fits, 20 * M)
        gone = weakref.ref(model)
        del model, planned
        assert gone() is None
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Mutants the checks must catch
# ----------------------------------------------------------------------
def _mutated(function, old: str, new: str):
    """``function`` with one piece of its source replaced."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, (function, old)
    namespace = dict(function.__globals__)
    exec(  # noqa: S102 - our own source
        "from __future__ import annotations\n" + source.replace(old, new), namespace
    )
    return namespace[function.__name__]


def check_plans_against_the_walked_chain(max_examples: int = 40) -> None:
    @given(generated.topologies())
    @settings(
        max_examples=max_examples, deadline=None, database=None, derandomize=True,
        phases=(Phase.generate,),  # finding one counterexample is the point
        report_multiple_bugs=False,
    )
    def differential(case):
        generated.test_one_pass_equals_the_chain_walked_stage_by_stage.hypothesis.inner_test(case)

    differential()


def check_models_sharing_passes(deployed_wordcount) -> None:
    """Models handed one ``passes`` dict answer as each does alone — across
    rates and plans as well as within one request."""
    _, _, _, store, tracker = deployed_wordcount
    models = [
        ThroughputPredictionModel(tracker, store),
        BackpressureEvaluationModel(tracker, store),
    ]
    app = _app(deployed_wordcount)  # its cache: one calibration for all
    try:
        for model in models:
            model.calibrations = app.calibrations
        passes: dict = {}
        for plan, rate in [
            ({"splitter": 3}, 20 * M), ({"splitter": 3}, 30 * M),
            ({"splitter": 6}, 30 * M), ({}, 30 * M), ({"counter": 6}, 30 * M),
        ]:
            for model in models:
                shared = model.predict(
                    "word-count", source_rate=rate, parallelisms=plan,
                    passes=passes,
                )
                alone = model.predict(
                    "word-count", source_rate=rate, parallelisms=plan
                )
                assert canonical_json(shared.as_dict()) == canonical_json(
                    alone.as_dict()
                )
        assert len(passes) == 5  # one pass per question, read twice
    finally:
        app.shutdown()


def check_the_first_of_equals_wins() -> None:
    """Two stages that saturate at the same source rate, on two paths
    that do: the first stage of the first path is the bottleneck."""
    builder = TopologyBuilder("ties")
    builder.add_spout("spout", 1)
    for name in ("left", "right", "left_sink", "right_sink"):
        builder.add_bolt(name, 1)
    builder.connect("spout", "left", ShuffleGrouping())
    builder.connect("spout", "right", ShuffleGrouping())
    builder.connect("left", "left_sink", ShuffleGrouping())
    builder.connect("right", "right_sink", ShuffleGrouping())
    model = TopologyModel(builder.build(), {
        name: ComponentModel(
            name,
            InstanceModel({} if name.endswith("sink") else {"default": 1.0}, 1e6),
            1,
        )
        for name in ("left", "right", "left_sink", "right_sink")
    })
    evaluation = model.evaluate(5e5)
    assert [p.bottleneck for p in evaluation.paths] == ["left", "right"]
    assert evaluation.worst.path == ("spout", "left", "left_sink")
    prediction = evaluate_throughput("ties", model, {}, 5e5)
    assert prediction.bottleneck == "left"


def test_the_checks_pass_on_the_tree(deployed_wordcount):
    check_plans_against_the_walked_chain()
    check_models_sharing_passes(deployed_wordcount)
    check_the_first_of_equals_wins()


class TestMutants:
    def test_a_memo_keyed_by_parallelism_alone(self, monkeypatch):
        monkeypatch.setattr(
            TopologyModel, "rescaled",
            _mutated(TopologyModel.rescaled,
                     "key = (name, parallelism)", "key = parallelism"),
        )
        # A sink handed a splitter's curve may not even have the stream.
        with pytest.raises((AssertionError, ModelError)):
            check_plans_against_the_walked_chain(max_examples=200)

    @pytest.mark.parametrize("forgotten", [
        "tuple(sorted(plan.items())), ", ", rate)",
    ])
    def test_a_pass_reused_across_a_different_plan_or_rate(
        self, deployed_wordcount, monkeypatch, forgotten
    ):
        monkeypatch.setattr(
            PerformanceModel, "predict",
            _mutated(PerformanceModel.predict, forgotten,
                     ")" if forgotten.endswith(")") else ""),
        )
        with pytest.raises(AssertionError):
            check_models_sharing_passes(deployed_wordcount)

    def test_the_last_of_equal_stages_winning(self, monkeypatch):
        monkeypatch.setattr(
            TopologyModel, "_chain",
            _mutated(TopologyModel._chain,
                     "at_source < saturation", "at_source <= saturation"),
        )
        with pytest.raises(AssertionError):
            check_the_first_of_equals_wins()

    def test_the_last_of_equal_paths_winning(self, monkeypatch):
        def last_wins(self):
            return min(
                reversed(self.paths), key=lambda path: path.saturation_source_rate
            )

        monkeypatch.setattr(topology_model.Evaluation, "worst", property(last_wins))
        with pytest.raises(AssertionError):
            check_the_first_of_equals_wins()
