"""Epoch fencing: the protocol pieces, each in isolation.

End-to-end fencing (promotions, and stale-epoch probes of every new
generation) is the cluster simulation's job
(``tests/cluster/test_chaos.py``); these tests pin the building blocks — the epoch
store's monotonic persistence, the worker's 409 on a mismatched
``X-Shard-Epoch``, the follower's refuse-the-past rule and the shipper's
permanent stop once fenced — so a failure names the broken layer
directly.  (How a client waits out a router 503 is the one retry loop's
business: ``tests/api/test_client_retry.py``.)
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from repro.api.app import CaladriusApp
from repro.api.client import CaladriusClient
from repro.api.server import CaladriusServer
from repro.cluster import EpochStore
from repro.cluster.follower import FollowerReplica
from repro.cluster.shipping import SegmentShipper
from repro.config import load_config
from repro.durability.disk import OS_DISK
from repro.errors import ApiError, DurabilityError
from repro.heron.tracker import TopologyTracker
from repro.telemetry import Telemetry
from repro.timeseries.store import MetricsStore
from tests.readings import reading


class TestEpochStore:
    def test_bump_is_monotonic_and_per_shard(self, tmp_path):
        store = EpochStore(tmp_path / "epochs.json")
        assert store.current(0) == 0
        assert store.bump(0) == 1
        assert store.bump(0) == 2
        assert store.bump(1) == 1
        assert store.current(0) == 2
        assert store.current(1) == 1

    def test_epochs_survive_a_reopen(self, tmp_path):
        path = tmp_path / "epochs.json"
        first = EpochStore(path)
        first.bump(0)
        first.bump(0)
        first.bump(3)
        reopened = EpochStore(path)
        assert reopened.current(0) == 2
        assert reopened.current(3) == 1
        # The next generation continues the sequence, never reuses one.
        assert reopened.bump(0) == 3

    def test_torn_epoch_file_resets_instead_of_blocking_boot(self, tmp_path):
        path = tmp_path / "epochs.json"
        path.write_text("{not json", encoding="utf8")
        store = EpochStore(path)
        assert store.current(0) == 0
        assert store.bump(0) == 1

    def test_memory_only_store_never_touches_disk(self, tmp_path):
        store = EpochStore(None)
        assert store.bump(5) == 1
        assert list(tmp_path.iterdir()) == []


@pytest.fixture()
def fenced_app():
    """A worker app pinned to epoch 3, served over real HTTP."""
    config = load_config({})
    config = replace(config, serving=replace(config.serving, enabled=False))
    app = CaladriusApp(
        config, TopologyTracker(), MetricsStore(), shard_id=0, epoch=3
    )
    server = CaladriusServer(app, port=0)
    server.start()
    client = CaladriusClient(server.host, server.port, retries=0)
    try:
        yield app, client
    finally:
        client.close()
        server.stop()
        app.shutdown()


class TestWorkerFencing:
    def test_mismatched_epoch_is_a_structured_409(self, fenced_app):
        _, client = fenced_app
        with pytest.raises(ApiError) as excinfo:
            client.write_metrics("arrivals", [(60, 1.0)], epoch=2)
        assert excinfo.value.status == 409
        payload = excinfo.value.payload
        assert payload["fenced"] is True
        assert payload["shard_epoch"] == 3
        assert payload["request_epoch"] == 2
        assert "refresh the ring" in payload["error"]

    def test_future_epoch_is_fenced_too(self, fenced_app):
        # A worker knows exactly which generation it is; a *newer* stamp
        # means the ring moved on and this process is the zombie.
        _, client = fenced_app
        with pytest.raises(ApiError) as excinfo:
            client.write_metrics("arrivals", [(60, 1.0)], epoch=4)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["fenced"] is True

    def test_matching_epoch_is_accepted(self, fenced_app):
        _, client = fenced_app
        assert client.write_metrics("arrivals", [(60, 1.0)], epoch=3) == 1

    def test_unstamped_write_is_accepted(self, fenced_app):
        # Fencing is opt-in: single-process callers never stamp.
        _, client = fenced_app
        assert client.write_metrics("arrivals", [(120, 2.0)]) == 1

    def test_non_integer_epoch_is_a_400(self, fenced_app):
        app, _ = fenced_app
        status, payload = app.handle(
            "POST",
            "/metrics/write",
            body={"name": "arrivals", "samples": [[60, 1.0]]},
            headers={"X-Shard-Epoch": "banana"},
        )
        assert status == 400
        assert "integer" in payload["error"]

    def test_healthz_names_the_epoch(self, fenced_app):
        _, client = fenced_app
        assert client.healthz()["epoch"] == 3


class TestFollowerFencing:
    def test_follower_refuses_only_the_past(self, tmp_path):
        replica = FollowerReplica(tmp_path / "replica")
        assert replica.fence(None) is None  # unstamped always passes
        assert replica.fence(2) is None
        rejection = replica.fence(1)
        assert rejection is not None
        assert rejection["fenced"] is True
        assert rejection["follower_epoch"] == 2
        # Equal and newer epochs pass; newer raises the bar.
        assert replica.fence(2) is None
        assert replica.fence(5) is None
        assert replica.fence(4) is not None

    def test_fence_survives_a_follower_restart(self, tmp_path):
        replica_dir = tmp_path / "replica"
        first = FollowerReplica(replica_dir)
        assert first.fence(7) is None
        reopened = FollowerReplica(replica_dir)
        assert reopened.highest_epoch == 7
        assert reopened.fence(6) is not None

    def test_the_fence_and_a_new_segment_survive_a_power_loss(self, tmp_path):
        """``shipper.epoch`` (the fence's high-water mark) and a new
        segment's name only survive a power loss once their directory is
        synced; an append to a known segment needs no directory sync."""
        from repro.durability.disk import Disk

        synced: list[str] = []

        class RecordingDisk(Disk):
            def sync_directory(self, directory):
                synced.append(directory.name)
                super().sync_directory(directory)

        replica = FollowerReplica(tmp_path / "replica", disk=RecordingDisk())
        assert replica.fence(3) is None
        assert synced == ["replica"]
        assert (tmp_path / "replica" / "shipper.epoch").read_text() == "3"
        segment = f"wal-{1:016d}.log"
        assert replica.receive_segment(segment, 0, b"\x01\x02")[0] == 200
        assert replica.receive_segment(segment, 2, b"\x03")[0] == 200
        assert synced == ["replica", "wal"]


class _FencingFollower(BaseHTTPRequestHandler):
    """Answers every POST with the fencing 409."""

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = json.dumps(
            {"error": "fenced", "fenced": True, "follower_epoch": 9}
        ).encode("utf8")
        self.send_response(409)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # noqa: D102 - silence test output
        pass


class TestShipperFencing:
    def _fake_store(self, tmp_path, failed=None, flush=None):
        return SimpleNamespace(
            wal=SimpleNamespace(failed=failed, segments=lambda: [], disk=OS_DISK),
            flush=flush or (lambda: None),
            data_dir=tmp_path,
            telemetry=Telemetry(),
        )

    def test_fencing_409_stops_shipping_permanently(self, tmp_path):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _FencingFollower)
        # A short poll: shutdown() waits out one poll interval.
        threading.Thread(
            target=server.serve_forever, args=(0.01,), daemon=True
        ).start()
        (tmp_path / "checkpoint.json").write_text("{}", encoding="utf8")
        shipper = SegmentShipper(
            self._fake_store(tmp_path),
            f"127.0.0.1:{server.server_address[1]}",
            epoch=2,
        )
        try:
            with pytest.raises(OSError, match="fenced off epoch 2"):
                shipper.ship_now()
            assert shipper.fenced is True
            assert reading(shipper, "shipping.fencing_409s") == 1
            # The second pass refuses before any HTTP: no rewind loop
            # against a fence, ever.
            with pytest.raises(OSError, match="fenced off"):
                shipper.ship_now()
            assert reading(shipper, "shipping.fencing_409s") == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_failed_wal_is_never_shipped(self, tmp_path):
        # A failed WAL may hold a torn frame the primary will truncate
        # on reopen; shipping it would desynchronise the mirror forever.
        shipper = SegmentShipper(
            self._fake_store(tmp_path, failed="injected fsync fault"),
            "127.0.0.1:1",
        )
        with pytest.raises(OSError, match="refusing to ship"):
            shipper.ship_now()
        assert reading(shipper, "shipping.passes") == 0

    def test_flush_failure_keeps_the_oserror_contract(self, tmp_path):
        def explode():
            raise DurabilityError("fsync: injected")

        shipper = SegmentShipper(
            self._fake_store(tmp_path, flush=explode), "127.0.0.1:1"
        )
        with pytest.raises(OSError, match="WAL flush failed"):
            shipper.ship_now()
