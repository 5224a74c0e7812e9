"""Checkpoint atomicity, recovery sequencing and tracker snapshots."""

from __future__ import annotations

import json

import pytest

from repro.durability import CheckpointManager, open_data_dir
from repro.durability.checkpoint import CHECKPOINT_FILENAME, read_checkpoint
from repro.durability.disk import OS_DISK
from repro.errors import DurabilityError
from repro.heron.wordcount import WordCountParams, build_word_count


class TestAtomicWriteJson:
    def test_round_trip_and_no_temp_leftovers(self, tmp_path):
        target = tmp_path / "out.json"
        OS_DISK.atomic_write(target, json.dumps({"a": 1}).encode())
        OS_DISK.atomic_write(target, json.dumps({"a": 2}).encode())  # overwrite
        assert json.loads(target.read_text()) == {"a": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestReadCheckpoint:
    def test_missing_is_none(self, tmp_path):
        assert read_checkpoint(tmp_path) is None

    @pytest.mark.parametrize("content", ["", "{trunc", "[1, 2]"])
    def test_corrupt_or_wrong_shape_raises(self, tmp_path, content):
        (tmp_path / CHECKPOINT_FILENAME).write_text(content)
        with pytest.raises(DurabilityError, match=CHECKPOINT_FILENAME):
            read_checkpoint(tmp_path)

    def test_wrong_format_raises(self, tmp_path):
        (tmp_path / CHECKPOINT_FILENAME).write_text('{"format": "other"}')
        with pytest.raises(DurabilityError, match="repro-checkpoint-v1"):
            read_checkpoint(tmp_path)


class TestCheckpointRecovery:
    def test_snapshot_plus_replay_round_trip(self, tmp_path):
        store, tracker = open_data_dir(tmp_path, fsync="always")
        topology, packing, _ = build_word_count(WordCountParams())
        tracker.register(topology, packing)
        for i in range(20):
            store.write("m", 60 * (i + 1), float(i), {"topology": "word-count"})
        manager = CheckpointManager(store, tracker)
        summary = manager.checkpoint()
        assert summary["last_lsn"] == 20
        assert summary["topologies"] == 1
        # post-checkpoint writes live only in the WAL
        for i in range(20, 25):
            store.write("m", 60 * (i + 1), float(i), {"topology": "word-count"})
        store.close()

        recovered, recovered_tracker = open_data_dir(tmp_path)
        report = recovered.recovery
        assert report.checkpoint_lsn == 20
        assert report.snapshot_samples == 20
        assert report.replayed_records == 5
        series = recovered.get("m", {"topology": "word-count"})
        assert list(series.values) == [float(i) for i in range(25)]
        # the tracker's packing plan rode along in the snapshot
        tracked = recovered_tracker.get("word-count")
        assert tracked.topology.name == "word-count"
        assert len(tracked.packing.containers) == len(packing.containers)
        recovered.close()

    def test_checkpoint_prunes_replayed_segments(self, tmp_path):
        store, tracker = open_data_dir(
            tmp_path, fsync="never", segment_max_bytes=1024
        )
        for i in range(200):
            store.write("m", 60 * (i + 1), float(i))
        wal_dir = tmp_path / "wal"
        before = len(list(wal_dir.glob("wal-*.log")))
        assert before > 1
        summary = CheckpointManager(store, tracker).checkpoint()
        # the drain during checkpointing may add a tail segment, so the
        # prune can reclaim more than were visible before — but never
        # fewer, and nothing replayable may be left behind
        assert summary["segments_pruned"] >= before
        assert list(wal_dir.glob("wal-*.log")) == []
        store.close()

    def test_restart_after_full_prune_keeps_lsns_monotonic(self, tmp_path):
        """Regression: an all-pruned WAL must not restart numbering at 1.

        If it did, post-restart appends would sit below the checkpoint's
        ``last_lsn`` and the *next* recovery would skip them — silently
        losing acknowledged writes.
        """
        store, tracker = open_data_dir(tmp_path, fsync="always")
        for i in range(10):
            store.write("m", 60 * (i + 1), float(i))
        CheckpointManager(store, tracker).checkpoint()
        store.close()

        store, tracker = open_data_dir(tmp_path, fsync="always")
        assert store.wal.last_lsn == 10
        for i in range(10, 15):
            store.write("m", 60 * (i + 1), float(i))
        store.close()

        store, _ = open_data_dir(tmp_path)
        assert len(store.get("m").timestamps) == 15
        assert store.recovery.replayed_records == 5
        store.close()

    def test_checkpoint_without_tracker(self, tmp_path):
        store, _ = open_data_dir(tmp_path)
        store.write("m", 60, 1.0)
        summary = CheckpointManager(store).checkpoint()
        assert summary["topologies"] == 0
        store.close()
        recovered, tracker = open_data_dir(tmp_path)
        assert tracker.names() == []
        assert len(recovered.get("m").timestamps) == 1
        recovered.close()
