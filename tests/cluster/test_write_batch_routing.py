"""Cluster-tier batched ingest: split by ring owner, merge the acks.

An in-process harness — real shard apps on real HTTP servers behind a
real :class:`RouterApp`, with a scriptable fake ``ShardManager`` — pins
the routing layer's batch contract: frames regroup by ring owner,
sub-batches forward as raw frames stamped with the owner's epoch,
per-shard outcomes merge with frame indexes rebased onto the original
batch, and one shard's trouble (down, fenced, resized away) never
poisons the others' acks.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api.app import CaladriusApp
from repro.api.client import BatchWriter, CaladriusClient
from repro.api.ingest import encode_frames
from repro.api.server import CaladriusServer
from repro.cluster import ClusterClient
from repro.cluster.ring import HashRing
from repro.cluster.router import RouterApp
from repro.config import load_config
from repro.errors import ApiError
from repro.heron.tracker import TopologyTracker
from repro.timeseries.store import MetricsStore
from tests.clock import ManualClock


def _bare_config():
    config = load_config({})
    return replace(config, serving=replace(config.serving, enabled=False))


class _FakeManager:
    """The slice of ShardManager the router needs, fully scriptable."""

    def __init__(self, shards):
        # shards: {shard_id: (server, app)}
        self._shards = dict(shards)
        self.version = 1
        self._epochs = {shard_id: 1 for shard_id in shards}
        self._down: set[int] = set()

    def shard_ids(self):
        return sorted(self._shards)

    def address_of(self, shard_id):
        if shard_id in self._down or shard_id not in self._shards:
            return None
        server = self._shards[shard_id][0]
        return (server.host, server.port)

    def state_of(self, shard_id):
        return "down" if shard_id in self._down else "ready"

    def epoch_of(self, shard_id):
        return self._epochs.get(shard_id, 0)

    def statuses(self):
        return [
            {"shard_id": shard_id, "state": self.state_of(shard_id)}
            for shard_id in self.shard_ids()
        ]

    def remove_shard(self, shard_id):
        self._shards.pop(shard_id, None)
        self._epochs.pop(shard_id, None)
        self.version += 1

    def mark_down(self, shard_id):
        self._down.add(shard_id)


@pytest.fixture()
def mini_cluster():
    """Two in-process shards behind a served router; yields the pieces."""
    config = _bare_config()
    shards = {}
    apps = []
    for shard_id in (0, 1):
        app = CaladriusApp(
            config, TopologyTracker(), MetricsStore(),
            shard_id=shard_id, epoch=1,
        )
        server = CaladriusServer(app, port=0)
        server.start()
        shards[shard_id] = (server, app)
        apps.append(app)
    manager = _FakeManager(shards)
    router = RouterApp(config, manager)
    router_server = CaladriusServer(router, port=0)
    router_server.start()
    try:
        yield manager, router, router_server, shards
    finally:
        router_server.stop()
        router._fanout.shutdown(wait=False)
        for server, app in shards.values():
            try:
                server.stop()
            except Exception:
                pass
            app.shutdown()


def _mixed_entries(count, topologies=("alpha", "echo", "bravo", "foxtrot")):
    return [
        (
            "arrivals",
            60 * (i // len(topologies) + 1),
            float(i),
            {"topology": topologies[i % len(topologies)]},
        )
        for i in range(count)
    ]


def _owners(router, entries):
    return {router.shard_for(tags["topology"]) for _, _, _, tags in entries}


class TestRouterWriteBatch:
    def test_mixed_batch_splits_and_merges(self, mini_cluster):
        manager, router, _, shards = mini_cluster
        entries = _mixed_entries(40)
        assert _owners(router, entries) == {0, 1}, (
            "topology spread no longer hits both shards; adjust names"
        )
        status, payload = router.handle(
            "POST", "/metrics/write_batch", {}, encode_frames(entries)
        )
        assert status == 200
        assert payload["acked"] == 40
        assert payload["rejected"] == []
        assert set(payload["per_shard"]) == {"0", "1"}
        for shard_summary in payload["per_shard"].values():
            assert shard_summary["status"] == 200
            assert shard_summary["acked"] == shard_summary["frames"]
        # Frames landed on their ring owners, and only there.
        for _, _, _, tags in entries:
            owner = router.shard_for(tags["topology"])
            for shard_id, (_, app) in shards.items():
                keys = app.store.keys("arrivals")
                present = any(
                    dict(k.tags).get("topology") == tags["topology"]
                    for k in keys
                )
                assert present == (shard_id == owner)

    def test_rejected_frames_rebase_onto_the_batch(self, mini_cluster):
        _, router, _, _ = mini_cluster
        entries = _mixed_entries(8)
        # Duplicate one sample so its second copy is stale on its shard.
        entries.append(entries[2])
        status, payload = router.handle(
            "POST", "/metrics/write_batch", {}, encode_frames(entries)
        )
        assert status == 200
        assert payload["acked"] == 8
        assert [r["frame"] for r in payload["rejected"]] == [8]

    def test_down_shard_refuses_only_its_sub_batch(self, mini_cluster):
        manager, router, _, shards = mini_cluster
        entries = _mixed_entries(20)
        down_owner = router.shard_for("alpha")
        manager.mark_down(down_owner)
        status, payload = router.handle(
            "POST", "/metrics/write_batch", {}, encode_frames(entries)
        )
        assert status == 200  # the other shard's acks stand
        assert 0 < payload["acked"] < 20
        (refusal,) = payload["refused"]
        assert refusal["shard_id"] == down_owner
        assert refusal["status"] == 503
        assert payload["acked"] + len(refusal["frames"]) == 20

    def test_whole_fleet_down_is_a_retryable_503(self, mini_cluster):
        manager, router, _, _ = mini_cluster
        manager.mark_down(0)
        manager.mark_down(1)
        status, payload = router.handle(
            "POST", "/metrics/write_batch", {}, encode_frames(
                _mixed_entries(4)
            )
        )
        assert status == 503
        assert payload["acked"] == 0
        assert payload["retry_after"] >= 1

    def test_fenced_shard_refuses_retryably(self, mini_cluster):
        manager, router, _, shards = mini_cluster
        entries = _mixed_entries(20)
        fenced_owner = router.shard_for("alpha")
        # The worker moved to epoch 2 (promotion) but the manager still
        # stamps epoch 1: every forward to it answers a fencing 409.
        shards[fenced_owner][1].epoch = 2
        status, payload = router.handle(
            "POST", "/metrics/write_batch", {}, encode_frames(entries)
        )
        assert status == 200
        assert 0 < payload["acked"] < 20
        (refusal,) = payload["refused"]
        assert refusal["status"] == 409
        assert refusal["shard_id"] == fenced_owner


    def test_served_router_answers_one_json_document(self, mini_cluster):
        """Over HTTP the router merges; it never streams commit groups.

        ``RouterApp`` has no ``handle_write_batch_frames``, so even a
        batch over ``commit_max_frames`` reaches ``handle`` as raw bytes
        and comes back as the one merged summary, ``per_shard`` included.
        """
        _, router, router_server, _ = mini_cluster
        count = router.config.ingest.commit_max_frames + 4
        entries = _mixed_entries(count)
        client = CaladriusClient(
            router_server.host, router_server.port, retries=0
        )
        try:
            over_http = client._request(
                "POST", "/metrics/write_batch",
                raw_body=encode_frames(entries),
            )
        finally:
            client.close()
        assert over_http["acked"] == count
        assert "commits" not in over_http
        assert set(over_http["per_shard"]) == {"0", "1"}
        assert router.lifecycle.wait_idle(5)


class TestClusterClientWriteBatch:
    def _client(self, router_server, **kwargs):
        kwargs.setdefault("clock", ManualClock())
        return ClusterClient(
            router_server.host, router_server.port,
            ring_ttl_seconds=30.0, **kwargs,
        )

    def test_split_batch_goes_direct_to_both_owners(self, mini_cluster):
        _, router, router_server, shards = mini_cluster
        client = self._client(router_server)
        try:
            ack = client.write_batch(_mixed_entries(40))
            assert ack.frames == 40 and ack.acked == 40
            assert ack.refused == []
            assert client.direct_calls == 2  # one per owning shard
            assert client.router_fallbacks == 0
            # LSNs are per-shard, meaningless once split.
            assert ack.first_lsn is None and ack.last_lsn is None
            total = sum(
                len(app.store.keys("arrivals"))
                for _, app in shards.values()
            )
            assert total == 4  # one series per topology, spread out
        finally:
            client.close()

    def test_rejections_rebase_through_the_merge(self, mini_cluster):
        _, _, router_server, _ = mini_cluster
        client = self._client(router_server)
        try:
            entries = _mixed_entries(8)
            entries.append(entries[5])  # stale duplicate
            ack = client.write_batch(entries)
            assert ack.acked == 8
            assert [r["frame"] for r in ack.rejected] == [8]
        finally:
            client.close()

    def test_fencing_409_falls_back_without_poisoning(self, mini_cluster):
        manager, router, router_server, shards = mini_cluster
        client = self._client(router_server, retries=1)
        try:
            client.refresh_ring()
            fenced_owner = router.shard_for("alpha")
            # The worker is one epoch ahead of the ring: direct calls
            # are fenced, and the router (stamping the stale epoch)
            # cannot land them either.
            shards[fenced_owner][1].epoch = 2
            ack = client.write_batch(_mixed_entries(20))
            # The healthy shard's sub-batch is fully acked.
            assert 0 < ack.acked < 20
            assert client.fenced_writes >= 1
            assert client.router_fallbacks >= 1
            (refusal,) = ack.refused
            assert refusal["shard_id"] == fenced_owner
            assert ack.acked + len(refusal["frames"]) == 20
        finally:
            client.close()

    def test_ring_resize_mid_flight_falls_back_to_router(
        self, mini_cluster
    ):
        manager, router, router_server, shards = mini_cluster
        client = self._client(router_server)
        try:
            client.refresh_ring()  # snapshot the 2-shard ring
            old_ring = HashRing(manager.shard_ids(), router.virtual_nodes)
            moving = next(
                t for t in ("alpha", "echo", "bravo", "foxtrot")
                if old_ring.shard_for(t) == 1
            )
            # Shard 1 leaves the fleet: its server stops, the manager
            # drops it, the ring version bumps.  The client still holds
            # the old ring.
            server1, app1 = shards[1]
            server1.stop()
            manager.remove_shard(1)
            ack = client.write_batch(
                [("arrivals", 60, 1.0, {"topology": moving}),
                 ("arrivals", 120, 2.0, {"topology": moving})]
            )
            # Direct send hit the dead shard, fell back to the router,
            # which re-routed onto the surviving ring.
            assert ack.acked == 2
            assert ack.refused == []
            assert client.router_fallbacks >= 1
            series = shards[0][1].store.get(
                "arrivals", {"topology": moving}
            )
            assert list(series.timestamps) == [60, 120]
        finally:
            client.close()

    def test_batch_writer_drives_cluster_routing(self, mini_cluster):
        _, _, router_server, shards = mini_cluster
        client = self._client(router_server)
        try:
            with BatchWriter(client, max_frames=10) as writer:
                for name, ts, value, tags in _mixed_entries(25):
                    writer.add(name, ts, value, tags)
            assert sum(ack.acked for ack in writer.acks) == 25
            total = sum(
                sum(
                    len(app.store.get(k.name, dict(k.tags)).timestamps)
                    for k in app.store.keys()
                )
                for _, app in shards.values()
            )
            assert total == 25
        finally:
            client.close()
