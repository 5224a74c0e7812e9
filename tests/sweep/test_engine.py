"""Engine-level behavior: calibrate once, rank, invalidate on new data."""

from __future__ import annotations

import pytest

import repro.sweep.artifact as artifact_module
from repro.errors import ModelError
from repro.sweep import CalibrationArtifact, PlanSweepEngine

from tests.sweep.conftest import M, plan_grid

RATE = 30 * M


class TestArtifactMemoization:
    def test_artifact_reused_while_data_unchanged(self, sweep_engine):
        first = sweep_engine.artifact("word-count")
        second = sweep_engine.artifact("word-count")
        assert first is second
        stats = sweep_engine.stats()
        assert stats["artifact_hits"] == 1
        assert stats["artifact_misses"] == 1

    def test_store_write_invalidates(self, deployed_wordcount, sweep_engine):
        _, _, _, store, _ = deployed_wordcount
        first = sweep_engine.artifact("word-count")
        store.write(
            "execute-count", 10**7, 1.0,
            {"topology": "word-count", "component": "splitter",
             "instance": "splitter_0", "container": "1"},
        )
        second = sweep_engine.artifact("word-count")
        assert first is not second
        assert second.data_version > first.data_version

    def test_calibration_runs_once_per_version(self, deployed_wordcount,
                                               monkeypatch):
        _, _, _, store, tracker = deployed_wordcount
        engine = PlanSweepEngine(tracker, store)
        calls = {"n": 0}
        original = artifact_module.calibrate_topology

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(artifact_module, "calibrate_topology", counting)
        for _ in range(5):
            engine.sweep("word-count", RATE, plan_grid(3, 3))
        assert calls["n"] == 1

    def test_explicit_invalidate(self, sweep_engine):
        first = sweep_engine.artifact("word-count")
        sweep_engine.invalidate("word-count")
        second = sweep_engine.artifact("word-count")
        assert first is not second

    def test_artifact_hash_tracks_identity(self, sweep_engine):
        artifact = sweep_engine.artifact("word-count")
        clone = CalibrationArtifact(
            topology_name=artifact.topology_name,
            cluster=artifact.cluster,
            environ=artifact.environ,
            topology=artifact.topology,
            base=artifact.base,
            fits=artifact.fits,
            cpu_models=artifact.cpu_models,
            plan_revision=artifact.plan_revision,
            data_version=artifact.data_version + 1,
            warmup_minutes=artifact.warmup_minutes,
        )
        assert clone.artifact_hash != artifact.artifact_hash


class TestSweepPayload:
    def test_ranked_by_output_rate(self, sweep_engine):
        payload = sweep_engine.sweep("word-count", RATE, plan_grid(4, 4))
        assert payload["topology"] == "word-count"
        assert payload["model"] == "plan-sweep"
        assert payload["plan_count"] == 16
        ranked = payload["ranked"]
        assert [e["rank"] for e in ranked] == list(range(1, 17))
        rates = [e["output_rate"] for e in ranked]
        assert rates == sorted(rates, reverse=True)

    def test_top_k_slices_after_ranking(self, sweep_engine):
        full = sweep_engine.sweep("word-count", RATE, plan_grid(4, 4))
        top = sweep_engine.sweep("word-count", RATE, plan_grid(4, 4), top_k=3)
        assert top["plan_count"] == 16
        assert len(top["ranked"]) == 3
        assert top["ranked"] == full["ranked"][:3]

    def test_entries_carry_plan_details(self, sweep_engine):
        payload = sweep_engine.sweep(
            "word-count", RATE, [{"splitter": 6, "counter": 6}]
        )
        (entry,) = payload["ranked"]
        assert entry["plan"] == {"splitter": 6, "counter": 6}
        assert entry["parallelisms"]["splitter"] == 6
        assert entry["total_instances"] == sum(
            entry["parallelisms"].values()
        )
        assert entry["backpressure_risk"] in {"low", "high"}
        assert entry["estimated_cpu_cores"] is None or (
            entry["estimated_cpu_cores"] > 0
        )

    def test_artifact_stanza_documents_provenance(self, sweep_engine):
        payload = sweep_engine.sweep("word-count", RATE, [{}])
        stanza = payload["artifact"]
        assert set(stanza) >= {"hash", "plan_revision", "data_version",
                               "calibrated_components"}
        assert "splitter" in stanza["calibrated_components"]

    def test_deterministic_tiebreak(self, sweep_engine):
        """Equal-output plans rank by canonical plan JSON, stably."""
        once = sweep_engine.sweep("word-count", RATE, plan_grid())
        twice = sweep_engine.sweep("word-count", RATE, plan_grid())
        assert once["ranked"] == twice["ranked"]

    def test_unknown_topology_raises(self, sweep_engine):
        from repro.errors import TopologyError

        with pytest.raises((ModelError, TopologyError)):
            sweep_engine.sweep("missing", RATE, [{}])
