"""WAL shipping and follower replay: byte mirror + live read replica."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api.app import CaladriusApp
from repro.api.client import CaladriusClient
from repro.api.server import CaladriusServer
from repro.cluster.follower import FollowerApp, FollowerReplica
from repro.cluster.shipping import SegmentShipper
from repro.config import load_config
from repro.durability import (
    CheckpointManager,
    DurableMetricsStore,
    open_data_dir,
    store_content_hash,
)
from repro.durability.wal import read_segment_records
from repro.errors import ApiError
from repro.heron.tracker import TopologyTracker
from repro.heron.wordcount import WordCountParams, build_word_count
from tests.readings import reading


@pytest.fixture()
def shard_store(tmp_path):
    store = DurableMetricsStore(tmp_path / "shard")
    yield store
    store.close()


@pytest.fixture()
def follower_service(tmp_path):
    """A FollowerApp hosted over real HTTP, as ``caladrius follow`` runs it."""
    config = load_config({})
    config = replace(config, serving=replace(config.serving, enabled=False))
    replica = FollowerReplica(tmp_path / "replica")
    inner = CaladriusApp(
        config, replica.tracker, replica.store, read_only=True
    )
    app = FollowerApp(replica, inner)
    with CaladriusServer(app, port=0) as server:
        yield server, replica
    app.close()


def _write_batch(store, count: int, start: int = 0) -> None:
    for i in range(start, start + count):
        store.write(
            "emit-count",
            60 * (i + 1),
            float(i),
            {"topology": "word-count", "component": "splitter"},
        )


def _shipper(shard_store, server) -> SegmentShipper:
    return SegmentShipper(
        shard_store, f"{server.host}:{server.port}", interval_seconds=0.05
    )


class TestShipping:
    def test_follower_converges_to_shard_hash(
        self, shard_store, follower_service
    ):
        server, replica = follower_service
        _write_batch(shard_store, 25)
        shipper = _shipper(shard_store, server)
        report = shipper.ship_now()
        assert report["shipped_bytes"] > 0
        status = replica.status()
        assert status["applied_lsn"] == 25
        assert status["content_hash"] == store_content_hash(shard_store)
        shipper.stop(final_ship=False)

    def test_incremental_passes_ship_only_new_bytes(
        self, shard_store, follower_service
    ):
        server, replica = follower_service
        shipper = _shipper(shard_store, server)
        _write_batch(shard_store, 10)
        first = shipper.ship_now()["shipped_bytes"]
        # Nothing new: the pass must be a no-op, not a re-send.
        assert shipper.ship_now()["shipped_bytes"] == 0
        _write_batch(shard_store, 5, start=10)
        second = shipper.ship_now()["shipped_bytes"]
        assert 0 < second < first
        assert replica.status()["content_hash"] == store_content_hash(
            shard_store
        )
        shipper.stop(final_ship=False)

    def test_checkpoint_ships_tracker_and_resets_replica(
        self, shard_store, follower_service
    ):
        server, replica = follower_service
        topology, packing, _ = build_word_count(WordCountParams())
        tracker = TopologyTracker()
        tracker.register(topology, packing)
        _write_batch(shard_store, 8)
        CheckpointManager(shard_store, tracker).checkpoint()
        _write_batch(shard_store, 4, start=8)
        shipper = _shipper(shard_store, server)
        shipper.ship_now()
        status = replica.status()
        # Topology registrations only travel inside checkpoints.
        assert status["topologies"] == ["word-count"]
        assert status["checkpoints_received"] == 1
        assert status["applied_lsn"] == 12
        assert status["content_hash"] == store_content_hash(shard_store)
        shipper.stop(final_ship=False)

    def test_bad_offset_bookkeeping_heals_via_409(
        self, shard_store, follower_service
    ):
        server, replica = follower_service
        _write_batch(shard_store, 12)
        shipper = _shipper(shard_store, server)
        shipper.ship_now()
        # Pretend the shipper crashed and restarted with stale offsets:
        # the follower's 409 answer carries the authoritative offset.
        _write_batch(shard_store, 6, start=12)
        shipper.offsets = {name: 0 for name in shipper.offsets}
        shipper.ship_now()
        status = replica.status()
        assert status["applied_lsn"] == 18
        assert status["content_hash"] == store_content_hash(shard_store)
        shipper.stop(final_ship=False)

    def test_replica_dir_is_a_recoverable_data_dir(
        self, shard_store, follower_service, tmp_path
    ):
        """Losing a shard's disk: its follower's directory rescues it."""
        server, replica = follower_service
        topology, packing, _ = build_word_count(WordCountParams())
        tracker = TopologyTracker()
        tracker.register(topology, packing)
        _write_batch(shard_store, 10)
        CheckpointManager(shard_store, tracker).checkpoint()
        _write_batch(shard_store, 10, start=10)
        shipper = _shipper(shard_store, server)
        shipper.ship_now()
        shipper.stop(final_ship=False)
        rescued, rescued_tracker = open_data_dir(replica.replica_dir)
        try:
            assert store_content_hash(rescued) == store_content_hash(
                shard_store
            )
            assert rescued_tracker.names() == ["word-count"]
        finally:
            rescued.close()

    def test_follower_restart_rebuilds_from_mirror(
        self, shard_store, follower_service
    ):
        server, replica = follower_service
        _write_batch(shard_store, 15)
        shipper = _shipper(shard_store, server)
        shipper.ship_now()
        shipper.stop(final_ship=False)
        reborn = FollowerReplica(replica.replica_dir)
        assert reborn.status()["content_hash"] == store_content_hash(
            shard_store
        )
        assert reborn.applied_lsn == 15

    def test_bytes_acknowledged_before_a_failed_post_are_counted(self, tmp_path):
        with DurableMetricsStore(tmp_path, segment_max_bytes=1024) as store:
            _write_batch(store, 20)
            store.flush()
            assert len(store.wal.segments()) >= 2
            link = _FirstPostOnly()
            shipper = SegmentShipper(store, "127.0.0.1:9", transport=link)
            assert shipper.ship_pass()  # failed, and counted as failed
            assert link.acknowledged > 0
            assert reading(shipper, "shipping.shipped_bytes") == link.acknowledged
            assert reading(shipper, "shipping.passes") == 0
            assert reading(shipper, "shipping.failures") == 1
            shipper.stop(final_ship=False)


class _FirstPostOnly:
    """A follower link that acknowledges the first post and drops the
    connection on every later one (the client's transport seam)."""

    used = False

    def __init__(self) -> None:
        self.acknowledged = 0

    def __call__(self, host, port, timeout):
        return self

    def exchange(self, method, path, payload, headers):
        if self.acknowledged:
            raise ConnectionResetError("follower link dropped")
        self.acknowledged = len(payload)
        body = b'{"offset": %d}' % len(payload)
        return 200, {"content-type": "application/json"}, body, False

    def close(self) -> None:
        pass


class TestFollowerIngestGuards:
    def test_rejects_non_segment_names(self, tmp_path):
        replica = FollowerReplica(tmp_path / "r")
        status, body = replica.receive_segment(
            "../../etc/passwd", 0, b"x"
        )
        assert status == 400
        assert "segment name" in body["error"]

    def test_gap_answers_409_with_held_offset(self, tmp_path):
        replica = FollowerReplica(tmp_path / "r")
        name = f"wal-{1:016d}.log"
        status, body = replica.receive_segment(name, 500, b"late")
        assert status == 409
        assert body["offset"] == 0

    def test_torn_tail_is_mirrored_but_not_applied(
        self, shard_store, tmp_path
    ):
        _write_batch(shard_store, 3)
        shard_store.flush()
        (segment,) = shard_store.wal.segments()
        raw = segment.read_bytes()
        replica = FollowerReplica(tmp_path / "r")
        half = len(raw) // 2
        status, _ = replica.receive_segment(segment.name, 0, raw[:half])
        assert status == 200
        # Some frames may be whole, but the torn tail must not be.
        assert replica.applied_lsn < 3
        status, body = replica.receive_segment(
            segment.name, half, raw[half:]
        )
        assert status == 200
        assert body["applied_lsn"] == 3
        assert replica.status()["content_hash"] == store_content_hash(
            shard_store
        )


    def test_shipment_cut_mid_frame_inside_a_decode_window_resumes_there(
        self, shard_store, tmp_path
    ):
        # 2500 frames: the decoder works in windows of 256, so a cut in
        # frame 1500 falls inside the sixth window of the first parse.
        shard_store.apply_sample_batch(
            [
                (shard_store.key_of("emit-count", {"topology": "wc", "i": str(i)}),
                 60, float(i))
                for i in range(2500)
            ]
        )
        shard_store.flush()
        (segment,) = shard_store.wal.segments()
        raw = segment.read_bytes()
        ends = [end for _, end in read_segment_records(segment)]
        cut = ends[1499] + 11  # three bytes into frame 1500's payload
        replica = FollowerReplica(tmp_path / "r")
        status, body = replica.receive_segment(segment.name, 0, raw[:cut])
        assert (status, body["applied_lsn"]) == (200, 1500)
        assert replica.status()["segments"] == {segment.name: ends[1499]}
        status, body = replica.receive_segment(segment.name, cut, raw[cut:])
        assert (status, body["applied_lsn"]) == (200, 2500)
        assert replica.status()["segments"] == {segment.name: len(raw)}
        assert (replica.applied_records, replica.skipped_records) == (2500, 0)
        assert replica.status()["content_hash"] == store_content_hash(
            shard_store
        )


class TestFollowerReads:
    def test_reads_work_and_writes_are_refused(
        self, shard_store, follower_service
    ):
        server, _ = follower_service
        topology, packing, _ = build_word_count(WordCountParams())
        tracker = TopologyTracker()
        tracker.register(topology, packing)
        _write_batch(shard_store, 5)
        CheckpointManager(shard_store, tracker).checkpoint()
        shipper = _shipper(shard_store, server)
        shipper.ship_now()
        shipper.stop(final_ship=False)
        client = CaladriusClient(server.host, server.port)
        try:
            assert client.topologies() == ["word-count"]
            series = client.read_metrics("emit-count")
            assert series and series[0]["values"]
            with pytest.raises(ApiError) as excinfo:
                client.write_metrics(
                    "emit-count",
                    [(999960, 1.0)],
                    tags={"topology": "word-count"},
                )
            assert excinfo.value.status == 403
            # A follower commits no frames itself, so the listener takes
            # write_batch through handle() like any JSON route: framed
            # bytes are a structured 400 on a live connection, not a
            # crash in a streaming path the app does not have.
            with pytest.raises(ApiError) as excinfo:
                client.write_batch(
                    [("emit-count", 999960, 1.0, {"topology": "word-count"})]
                )
            assert excinfo.value.status == 400
            assert "not JSON" in str(excinfo.value)
            assert client.healthz()["state"] == "running"
            assert server.app.lifecycle.wait_idle(5)
        finally:
            client.close()
