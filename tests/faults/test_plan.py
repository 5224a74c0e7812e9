"""FaultPlan / FaultEvent: validation, ordering, YAML, determinism."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import FaultError
from repro.faults.plan import FaultEvent, FaultPlan, load_fault_plan
from repro.heron.wordcount import WordCountParams, build_word_count


def _kinds(plan):
    return Counter(event.kind for event in plan.events)


@pytest.fixture(scope="module")
def wordcount():
    return build_word_count(WordCountParams(
        splitter_parallelism=2, counter_parallelism=4,
    ))


class TestFaultEvent:
    def test_crash_needs_component_and_index(self):
        with pytest.raises(FaultError, match="component and index"):
            FaultEvent(at_seconds=60, kind="crash", component="splitter")

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultEvent(at_seconds=0, kind="explode")

    def test_straggler_factor_range(self):
        with pytest.raises(FaultError, match="factor"):
            FaultEvent(at_seconds=0, kind="straggler", component="b",
                       index=0, factor=1.5)

    def test_stall_needs_container(self):
        with pytest.raises(FaultError, match="container"):
            FaultEvent(at_seconds=0, kind="stmgr_stall")

    def test_negative_times_rejected(self):
        with pytest.raises(FaultError):
            FaultEvent(at_seconds=-1, kind="metric_dropout")
        with pytest.raises(FaultError):
            FaultEvent(at_seconds=0, kind="metric_dropout",
                       duration_seconds=0)

    def test_permanent_fault_never_ends(self):
        event = FaultEvent(at_seconds=60, kind="metric_dropout")
        assert event.ends_at == float("inf")

    def test_from_dict_accepts_minutes(self):
        event = FaultEvent.from_dict(
            {"kind": "crash", "at_minutes": 2, "duration_minutes": 1,
             "component": "splitter", "index": 0}
        )
        assert event.at_seconds == 120
        assert event.duration_seconds == 60

    def test_from_dict_rejects_both_time_units(self):
        with pytest.raises(FaultError, match="not both"):
            FaultEvent.from_dict(
                {"kind": "metric_dropout", "at_seconds": 5, "at_minutes": 1}
            )

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultError, match="unknown fault event fields"):
            FaultEvent.from_dict(
                {"kind": "metric_dropout", "at_seconds": 5, "severity": 9}
            )


class TestFaultPlan:
    def test_events_sorted_by_start_time(self):
        late = FaultEvent(at_seconds=300, kind="metric_dropout")
        early = FaultEvent(at_seconds=60, kind="crash",
                           component="splitter", index=0,
                           duration_seconds=60)
        plan = FaultPlan(events=(late, early))
        assert plan.events == (early, late)

    def test_sorting_handles_mixed_none_fields(self):
        # component=None vs component="x" at the same instant must not
        # raise (a plain tuple sort would TypeError on None < str).
        a = FaultEvent(at_seconds=60, kind="metric_dropout")
        b = FaultEvent(at_seconds=60, kind="metric_dropout",
                       component="splitter")
        assert FaultPlan(events=(b, a)).events == (a, b)

    def test_kinds_counts(self):
        plan = FaultPlan(events=(
            FaultEvent(at_seconds=0, kind="metric_dropout"),
            FaultEvent(at_seconds=60, kind="metric_dropout"),
            FaultEvent(at_seconds=0, kind="stmgr_stall", container=1),
        ))
        assert _kinds(plan) == {"metric_dropout": 2, "stmgr_stall": 1}

    def test_randomized_is_deterministic(self, wordcount):
        topology, packing, _ = wordcount
        one = FaultPlan.randomized(topology, packing, 10, seed=5,
                                   crashes=2, stragglers=2, stalls=1,
                                   dropouts=2)
        two = FaultPlan.randomized(topology, packing, 10, seed=5,
                                   crashes=2, stragglers=2, stalls=1,
                                   dropouts=2)
        assert one.events == two.events
        assert len(one) == 7

    def test_randomized_seeds_differ(self, wordcount):
        topology, packing, _ = wordcount
        one = FaultPlan.randomized(topology, packing, 10, seed=1)
        two = FaultPlan.randomized(topology, packing, 10, seed=2)
        assert one.events != two.events

    def test_randomized_targets_are_valid(self, wordcount):
        topology, packing, _ = wordcount
        container_ids = {c.container_id for c in packing.containers}
        plan = FaultPlan.randomized(topology, packing, 10, seed=3,
                                    crashes=3, stragglers=3, stalls=3,
                                    dropouts=3)
        for event in plan.events:
            if event.component is not None:
                assert event.component in topology.components
            if event.container is not None:
                assert event.container in container_ids
            assert 0 <= event.at_seconds <= 600


class TestLoadFaultPlan:
    def test_yaml_file(self, tmp_path, wordcount):
        topology, packing, _ = wordcount
        path = tmp_path / "faults.yaml"
        path.write_text(
            "faults:\n"
            "  seed: 7\n"
            "  events:\n"
            "    - {kind: crash, at_minutes: 2, duration_minutes: 1,\n"
            "       component: splitter, index: 0}\n"
            "    - {kind: stmgr_stall, at_seconds: 300,\n"
            "       duration_seconds: 60, container: 1}\n"
        )
        plan = load_fault_plan(path, topology, packing, 10)
        assert plan.seed == 7
        assert [e.kind for e in plan.events] == ["crash", "stmgr_stall"]

    def test_missing_file(self):
        with pytest.raises(FaultError, match="does not exist"):
            load_fault_plan("/nonexistent/faults.yaml")

    def test_randomized_section_merges_with_events(self, wordcount):
        topology, packing, _ = wordcount
        plan = load_fault_plan(
            {"faults": {
                "seed": 3,
                "events": [{"kind": "metric_dropout", "at_minutes": 1,
                            "duration_minutes": 1}],
                "randomized": {"crashes": 1, "stragglers": 0,
                               "dropouts": 0},
            }},
            topology, packing, 10,
        )
        assert _kinds(plan) == {"metric_dropout": 1, "crash": 1}

    def test_randomized_section_needs_context(self):
        with pytest.raises(FaultError, match="randomized"):
            load_fault_plan({"faults": {"randomized": {"crashes": 1}}})

    def test_example_plan_parses(self, wordcount):
        from pathlib import Path

        topology, packing, _ = wordcount
        example = Path(__file__).parents[2] / "examples" / "faults.yaml"
        plan = load_fault_plan(example, topology, packing, 10)
        assert set(_kinds(plan)) == {
            "crash", "straggler", "stmgr_stall", "metric_dropout"
        }
