"""Chaos harness: schedule determinism, blast-radius rules, and one
compact end-to-end campaign against a real cluster.

The nightly CI job runs the full-length campaign; the e2e test here is
deliberately short — its job is to prove the harness boots a cluster,
fires real signals, and the four invariants hold on a small run, not to
maximise fault coverage.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.chaos import (
    KILL9,
    PARTITION,
    PAUSE,
    WIPE,
    ChaosController,
    ChaosEvent,
    build_schedule,
    chaos_topologies,
)


class TestBuildSchedule:
    def test_same_seed_same_schedule(self):
        assert build_schedule(3, 42, 30.0, 8) == build_schedule(
            3, 42, 30.0, 8
        )

    def test_different_seeds_differ(self):
        schedules = {
            tuple(build_schedule(3, seed, 30.0, 8)) for seed in range(6)
        }
        assert len(schedules) > 1

    def test_events_are_time_sorted_and_within_the_run(self):
        for seed in range(10):
            schedule = build_schedule(4, seed, 20.0, 8)
            times = [event.at_seconds for event in schedule]
            assert times == sorted(times)
            for event in schedule:
                assert 0 < event.at_seconds < 20.0
                if event.kind in (PAUSE, PARTITION):
                    assert 1.0 <= event.duration_seconds <= 3.0
                else:
                    assert event.duration_seconds == 0.0
                assert event.kind in (KILL9, PAUSE, PARTITION, WIPE)

    def test_at_most_one_wipe_and_it_owns_its_shard(self):
        """The wiped shard receives ONLY its wipe: a wipe composed with
        a shipping partition genuinely loses acked writes, which would
        make invariant failures unattributable."""
        for seed in range(30):
            schedule = build_schedule(3, seed, 30.0, 10)
            wipes = [e for e in schedule if e.kind == WIPE]
            assert len(wipes) <= 1
            if wipes:
                victim = wipes[0].shard_id
                others = [
                    e for e in schedule
                    if e.shard_id == victim and e.kind != WIPE
                ]
                assert others == []

    def test_single_shard_never_wipes(self):
        # Wiping the only shard removes the entire data plane; the
        # event downgrades to kill9.
        for seed in range(20):
            schedule = build_schedule(1, seed, 30.0, 8)
            assert all(e.kind != WIPE for e in schedule)

    def test_zero_events_is_an_empty_campaign(self):
        assert build_schedule(2, 0, 30.0, 0) == []


class TestChaosTopologies:
    def test_every_shard_gets_coverage(self):
        for shards in (1, 2, 3, 5):
            owners = chaos_topologies(shards, per_shard=2)
            by_shard: dict[int, int] = {}
            for shard in owners.values():
                by_shard[shard] = by_shard.get(shard, 0) + 1
            assert set(by_shard) == set(range(shards))
            assert all(count == 2 for count in by_shard.values())

    def test_names_are_deterministic(self):
        assert chaos_topologies(3) == chaos_topologies(3)


class TestChaosEvent:
    def test_events_are_frozen_values(self):
        event = ChaosEvent(KILL9, 0, 1.5)
        with pytest.raises(AttributeError):
            event.shard_id = 1  # type: ignore[misc]


class TestEndToEnd:
    def test_short_campaign_holds_all_invariants(self, tmp_path):
        """A real (small) campaign: live cluster, real signals, all
        four invariants checked.  Seed 0 at this scale schedules pauses,
        a shipping partition and a full disk wipe (promotion path)."""
        controller = ChaosController(
            shards=2,
            seed=0,
            duration_seconds=10.0,
            data_root=tmp_path,
            events=4,
            unavailability_bound_seconds=30.0,
            quiesce_timeout_seconds=90.0,
        )
        report = controller.run()
        # Keep the report readable in failure output.
        pretty = json.dumps(report, indent=2)
        assert report["quiesced"], pretty
        for name, verdict in report["invariants"].items():
            assert verdict["ok"], f"{name} failed:\n{pretty}"
        assert report["ok"], pretty
        counters = report["counters"]
        assert counters["acked_writes"] > 0
        assert counters["probes"] > 0
        executed = [e for e in report["events"] if e["executed"]]
        assert executed, pretty
        # The wipe forced a promotion: some shard is on epoch >= 2 and
        # the stale-epoch probe against it was fenced.
        assert any(int(e) >= 2 for e in report["epochs"].values()), pretty
        assert counters["fence_accepted"] == 0
