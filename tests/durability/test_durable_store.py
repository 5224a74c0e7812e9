"""DurableMetricsStore: journalled mutations and the recovery contract.

"Crashes" here are simulated the honest way: the store object is
abandoned without ``close()`` (so nothing is flushed beyond what the
fsync policy already persisted) and the directory is reopened fresh.
"""

from __future__ import annotations

import shutil

import pytest

from repro.cluster.follower import FollowerReplica
from repro.durability import (
    DurableMetricsStore,
    open_data_dir,
    store_content_hash,
)
from repro.errors import MetricsError


def _fill(store, n, name="m", topology="t"):
    for i in range(n):
        store.write(name, 60 * (i + 1), float(i), {"topology": topology})


class TestJournalledWrites:
    def test_acked_writes_survive_abandonment(self, tmp_path):
        store = DurableMetricsStore(tmp_path, fsync="always")
        _fill(store, 30)
        # no close(): the process "dies" here
        recovered = DurableMetricsStore(tmp_path)
        series = recovered.get("m", {"topology": "t"})
        assert list(series.values) == [float(i) for i in range(30)]
        assert recovered.recovery.replayed_records == 30
        recovered.close()

    def test_validation_errors_do_not_pollute_the_log(self, tmp_path):
        store = DurableMetricsStore(tmp_path, fsync="always")
        store.write("m", 120, 1.0)
        with pytest.raises(MetricsError):
            store.write("m", 60, 2.0)  # out of order: rejected pre-journal
        store.close()
        recovered = DurableMetricsStore(tmp_path)
        assert recovered.recovery.replayed_records == 1
        assert recovered.recovery.skipped_records == 0
        recovered.close()

    def test_an_inconvertible_sample_is_refused_before_it_lands(self, tmp_path):
        """What a batch applied is what it journaled: the good sample
        before a bad one is in memory *and* in the log, and
        ``data_version`` counts it; the bad one is in neither."""
        store = DurableMetricsStore(tmp_path, fsync="always")
        with pytest.raises(MetricsError, match="finite timestamp"):
            store.write_many("m", [(60, 1.0), (1e400, 2.0)], {"topology": "t"})
        with pytest.raises(MetricsError, match="numeric value"):
            store.write("m", 120, "abc", {"topology": "t"})
        assert store.data_version("t") == 1 and store.wal.last_lsn == 1
        live = store_content_hash(store)
        store.close()
        with DurableMetricsStore(tmp_path) as reopened:
            assert store_content_hash(reopened) == live
            assert list(reopened.get("m", {"topology": "t"}).timestamps) == [60]

    def test_clear_is_journalled(self, tmp_path):
        store = DurableMetricsStore(tmp_path, fsync="always")
        _fill(store, 5)
        store.clear()
        store.write("fresh", 60, 9.0)
        recovered = DurableMetricsStore(tmp_path)
        assert recovered.metric_names() == ["fresh"]
        recovered.close()

    def test_unknown_wal_op_is_skipped_not_fatal(self, tmp_path):
        store = DurableMetricsStore(tmp_path, fsync="always")
        store.write("m", 60, 1.0)
        store.wal.append({"op": "frobnicate"})
        store.write("m", 120, 2.0)
        recovered = DurableMetricsStore(tmp_path)
        assert recovered.recovery.replayed_records == 2
        assert recovered.recovery.skipped_records == 1
        assert list(recovered.get("m").values) == [1.0, 2.0]
        recovered.close()


class TestListenersHearAfterTheCommit:
    """An invalidation wakes the re-warm of what the write made stale;
    told before the journal commit, that work raced the write's own fsync."""

    @staticmethod
    def _store(tmp_path, **kwargs):
        store = DurableMetricsStore(tmp_path, fsync="always", **kwargs)
        heard: list[tuple[str | None, int, int]] = []
        store.add_invalidation_listener(
            lambda topology: heard.append(
                (topology, store.wal.last_lsn, store.wal.fsyncs)
            )
        )
        return store, heard

    def test_every_journalled_write_path(self, tmp_path):
        store, heard = self._store(tmp_path)
        key = store.key_of("m", {"topology": "t"})
        store.write("m", 60, 1.0, {"topology": "t"})
        assert heard == [("t", 1, 1)]
        store.apply_sample_batch([(key, 120, 2.0), (key, 180, 3.0)])
        assert heard[1:] == [("t", 3, 2)]
        batch = store.make_minute_batch([key])
        store.append_minute_batch(batch, 240, [4.0], "t")
        assert heard[2:] == [("t", 4, 3)]
        store.write_many("m", [(300, 5.0), (360, 6.0)], {"topology": "t"})
        assert heard[3:] == [("t", 6, 4)]
        store.ingest_frames(
            [b'{"op":"write","name":"m","tags":{"topology":"u"},"ts":60,"v":1.0}']
        )
        assert heard[4:] == [("u", 7, 5)]
        store.close()

    def test_a_rejected_write_tells_nobody(self, tmp_path):
        store, heard = self._store(tmp_path)
        store.write("m", 120, 1.0, {"topology": "t"})
        with pytest.raises(MetricsError):
            store.write("m", 60, 2.0, {"topology": "t"})
        assert len(heard) == 1
        store.close()

    @pytest.mark.parametrize("batched", [False, True], ids=["write", "batch"])
    def test_a_failed_journal_append_still_tells_them(self, tmp_path, batched):
        """The samples are in memory (and ``data_version`` has moved)
        whether or not the log took them, so a cached answer computed
        without them must still go."""
        from repro.errors import DurabilityError
        from tests.durability.page_cache import PageCacheDisk

        disk = PageCacheDisk()
        store, heard = self._store(tmp_path, disk=disk)
        disk.fail_next_sync = True
        before = store.data_version("t")
        with pytest.raises(DurabilityError):
            if batched:
                key = store.key_of("m", {"topology": "t"})
                store.apply_sample_batch([(key, 60, 1.0)])
            else:
                store.write("m", 60, 1.0, {"topology": "t"})
        assert [topology for topology, _, _ in heard] == ["t"]
        assert store.data_version("t") == before + 1
        assert len(store.get("m", {"topology": "t"})) == 1


class TestReplay:
    """Recovery and the follower replay one log through one function."""

    def test_interleaved_clear_and_duplicate_count_the_same(self, tmp_path):
        store = DurableMetricsStore(tmp_path / "shard", fsync="always")
        _fill(store, 3)
        duplicate = {
            "op": "write", "name": "m", "tags": {"topology": "t"},
            "ts": 180, "v": 2.0,
        }
        store.wal.append(duplicate)  # same sample twice in the log
        store.clear()
        _fill(store, 2)  # timestamps the clear made writable again
        store.wal.append({**duplicate, "ts": 60})  # stale after the refill
        store.close()

        recovered = DurableMetricsStore(tmp_path / "shard")
        # 3 writes, the clear and 2 more writes replay; both extras skip.
        assert recovered.recovery.replayed_records == 6
        assert recovered.recovery.skipped_records == 2
        assert list(recovered.get("m", {"topology": "t"}).timestamps) == [60, 120]

        shutil.copytree(tmp_path / "shard" / "wal", tmp_path / "replica" / "wal")
        replica = FollowerReplica(tmp_path / "replica")
        assert replica.applied_records == 6
        assert replica.skipped_records == 2
        assert replica.applied_lsn == recovered.wal.last_lsn == 8
        assert store_content_hash(replica.store) == store_content_hash(recovered)
        recovered.close()


class TestVersionsAcrossRestart:
    def test_data_version_never_rewinds(self, tmp_path):
        store = DurableMetricsStore(tmp_path, fsync="always")
        _fill(store, 25, topology="wc")
        before = store.data_version("wc")
        assert before == 25
        recovered = DurableMetricsStore(tmp_path)
        assert recovered.data_version("wc") >= before
        recovered.write("m", 60 * 26, 25.0, {"topology": "wc"})
        assert recovered.data_version("wc") > before
        recovered.close()

    def test_retention_comes_back_from_the_checkpoint(self, tmp_path):
        from repro.durability import CheckpointManager

        store, tracker = open_data_dir(tmp_path, retention_seconds=600)
        _fill(store, 5)
        CheckpointManager(store, tracker).checkpoint()
        store.close()
        # reopened without re-specifying retention
        recovered, _ = open_data_dir(tmp_path)
        assert recovered.retention_seconds == 600
        recovered.close()

    def test_retention_trims_replay_without_losing_new_writes(self, tmp_path):
        store = DurableMetricsStore(tmp_path, retention_seconds=300, fsync="always")
        _fill(store, 20)  # spans 60..1200s; retention keeps the last 300s
        version = store.data_version("t")
        store.close()
        recovered = DurableMetricsStore(tmp_path, retention_seconds=300)
        series = recovered.get("m", {"topology": "t"})
        assert series.timestamps[0] >= 1200 - 300
        assert series.timestamps[-1] == 1200
        # the version counter still reflects every write ever applied
        assert recovered.data_version("t") >= version
        recovered.close()


class TestFsyncPolicies:
    def test_interval_policy_persists_on_close(self, tmp_path):
        store = DurableMetricsStore(
            tmp_path, fsync="interval", fsync_interval_seconds=3600
        )
        _fill(store, 10)
        store.close()  # close flushes regardless of the interval
        recovered = DurableMetricsStore(tmp_path)
        assert len(recovered.get("m", {"topology": "t"}).timestamps) == 10
        recovered.close()

    def test_flush_forces_durability_mid_interval(self, tmp_path):
        store = DurableMetricsStore(
            tmp_path, fsync="interval", fsync_interval_seconds=3600
        )
        _fill(store, 7)
        store.flush()
        recovered = DurableMetricsStore(tmp_path)  # store never closed
        assert len(recovered.get("m", {"topology": "t"}).timestamps) == 7
        recovered.close()
