"""Every hop between tiers rides ``CaladriusClient.exchange``.

What that buys and what it must not break, over real sockets: the router
re-encodes the query it forwards, keeps one socket per shard per thread
and survives its going stale, turns a refused connection into the one
503 refusal; the cluster client's router fallback spends exactly the
budget the caller set, passes ``allow_stale`` down, and keeps one client
per shard *id*; and the router's merged batch document and the cluster
client's ack are the same merge of the same shard answers.
"""

from __future__ import annotations

import http.server
import json
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.app import CaladriusApp
from repro.api.client import BatchAck, CaladriusClient
from repro.api.ingest import encode_frames, split_frames
from repro.api.server import CaladriusServer
from repro.cluster import ClusterClient
from repro.cluster.ring import DEFAULT_VIRTUAL_NODES, HashRing
from repro.cluster.router import RouterApp
from repro.durability.lifecycle import LifecycleController
from repro.errors import ApiError
from repro.heron.tracker import TopologyTracker
from repro.telemetry import Telemetry
from tests.clock import ManualClock
from tests.cluster.test_write_batch_routing import (  # noqa: F401 - fixture
    _bare_config,
    _FakeManager,
    mini_cluster,
)
from tests.readings import reading


def _cluster_client(router_server, clock=None, **options):
    return ClusterClient(
        router_server.host, router_server.port, ring_ttl_seconds=30.0,
        clock=clock or ManualClock(), **options,
    )


def _topology_owned_by(router, shard_id):
    return next(
        name
        for name in ("alpha", "echo", "bravo", "foxtrot")
        if router.shard_for(name) == shard_id
    )


class TestQueryEncoding:
    """The listener percent-decodes a query; the router must encode it
    again before forwarding, or a tag value with ``&``, ``#``, ``%`` or
    a space reaches the shard as a different query (or not at all)."""

    @pytest.mark.parametrize(
        "topology", ["a&b=c", "x#y", "two words", "50%", "plain"]
    )
    def test_tag_values_survive_the_proxy_hop(self, mini_cluster, topology):
        _, router, router_server, shards = mini_cluster
        with CaladriusClient(
            router_server.host, router_server.port, retries=0
        ) as client:
            tags = {"topology": topology}
            assert client.write_metrics("arrivals", [(60, 1.0)], tags) == 1
            (series,) = client.read_metrics("arrivals", tags)
            assert series["tags"] == tags
            assert series["values"] == [1.0]
            # …and it is what the owner itself answers.
            server, _ = shards[router.shard_for(topology)]
            with CaladriusClient(server.host, server.port) as direct:
                assert direct.read_metrics("arrivals", tags) == [series]
        assert reading(router, "router.unavailable") == 0


class TestRouterFallbackBudget:
    def test_retries_is_the_whole_budget(self, mini_cluster):
        """Owner down: the router answers 503 + Retry-After: 1 every
        time.  ``retries=2`` means two waits, each the hint capped at
        ``backoff_max_seconds`` — nothing multiplies them."""
        manager, router, router_server, _ = mini_cluster
        clock = ManualClock()
        client = _cluster_client(
            router_server, clock, retries=2, backoff_max_seconds=0.4
        )
        try:
            manager.mark_down(router.shard_for("alpha"))
            with pytest.raises(ApiError) as excinfo:
                client.write_metrics(
                    "arrivals", [(60, 1.0)], {"topology": "alpha"}
                )
            assert excinfo.value.status == 503
            assert excinfo.value.payload["shard_state"] == "down"
            assert clock.slept == [0.4, 0.4]
            assert client.router_fallbacks == 1
        finally:
            client.close()

    def test_the_ring_ttl_runs_on_the_clients_clock(self, mini_cluster):
        """The clock rides the forwarded client options: the router's
        client, every shard client and the ring's age all read it."""
        _, _, router_server, _ = mini_cluster
        clock = ManualClock(now=100.0)
        client = _cluster_client(router_server, clock)
        try:
            assert client.router.clock is clock
            assert client._shard_clients._options["clock"] is clock
            fetched_at = []
            for step in (0.0, 29.5, 0.5):
                clock.advance(step)
                client._routing()
                fetched_at.append(client._fetched_at)
            assert fetched_at == [100.0, 100.0, 130.0]
        finally:
            client.close()


class TestAllowStale:
    def test_cluster_client_reads_from_the_follower(self, mini_cluster):
        """``allow_stale`` rides the one owner dispatch: with the owner
        down the router fallback answers from its follower."""
        manager, router, router_server, shards = mini_cluster
        owner = router.shard_for("alpha")
        tags = {"topology": "alpha"}
        # The other shard's server stands in for the owner's follower:
        # it holds a copy of the series and answers reads.
        stand_in_server, stand_in = shards[1 - owner]
        stand_in.store.write("arrivals", 60, 7.0, tags)
        manager.follower_address_of = lambda shard_id: (
            (stand_in_server.host, stand_in_server.port)
            if shard_id == owner
            else None
        )
        manager.mark_down(owner)
        client = _cluster_client(router_server, retries=0)
        try:
            with pytest.raises(ApiError) as excinfo:
                client.read_metrics("arrivals", tags)
            assert excinfo.value.status == 503
            (series,) = client.read_metrics("arrivals", tags, allow_stale=True)
            assert series["values"] == [7.0]
            assert client.router_fallbacks == 2
        finally:
            client.close()


class TestOneClientPerShardId:
    def test_a_moved_shard_replaces_its_client(self, mini_cluster):
        """A respawn or promotion moves a shard to a new port.  Both
        caches are keyed by shard id: the old client is closed and
        replaced, not stranded beside the new one."""
        manager, router, router_server, shards = mini_cluster
        topology = _topology_owned_by(router, 1)
        tags = {"topology": topology}
        client = _cluster_client(router_server, retries=0)
        old_server, old_app = shards[1]
        try:
            client.write_metrics("arrivals", [(60, 1.0)], tags)
            router.handle("GET", "/metrics/read", {"name": "arrivals", **tags})
            old_direct = client._shard_clients._clients[1]
            old_routed = router._clients._clients[1]
            assert old_direct._local.connection is not None
            assert old_routed._local.connection is not None

            # The same store behind a new process on a new port.
            app = CaladriusApp(
                router.config, TopologyTracker(), old_app.store,
                shard_id=1, epoch=1,
            )
            moved = CaladriusServer(app, port=0)
            moved.start()
            shards[1] = manager._shards[1] = (moved, app)
            manager.version += 1
            old_server.stop()
            client.refresh_ring()

            client.write_metrics("arrivals", [(120, 2.0)], tags)
            status, _ = router.handle(
                "GET", "/metrics/read", {"name": "arrivals", **tags}
            )
            assert status == 200
            assert client.router_fallbacks == 0 and client.direct_calls == 2
            for cache, old in (
                (client._shard_clients._clients, old_direct),
                (router._clients._clients, old_routed),
            ):
                assert set(cache) <= {0, 1}
                assert cache[1] is not old
                assert (cache[1].host, cache[1].port) == (
                    moved.host, moved.port
                )
                assert old._local.connection is None  # closed
        finally:
            client.close()
            old_app.shutdown()


# ----------------------------------------------------------------------
# Keep-alive on the router → shard hop, and its failure modes
# ----------------------------------------------------------------------
class _CountingShard(http.server.ThreadingHTTPServer):
    """Counts accepted sockets; can hang up after its next response."""

    daemon_threads = True
    accepted = 0
    hang_up_after_next = False

    def get_request(self):
        self.accepted += 1
        return super().get_request()


class _CountingHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
        body = json.dumps({"path": self.path}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        if self.server.hang_up_after_next:
            # Close without announcing it, as a keep-alive timeout or a
            # restart would: the client only finds out on its next use.
            self.server.hang_up_after_next = False
            self.close_connection = True

    def log_message(self, *args):  # quiet
        pass


class TestRouterKeepAlive:
    def test_one_socket_and_its_failure_modes(self):
        stub = _CountingShard(("127.0.0.1", 0), _CountingHandler)
        # A short poll: shutdown() waits out one poll interval.
        threading.Thread(
            target=stub.serve_forever, args=(0.01,), daemon=True
        ).start()
        address = SimpleNamespace(
            host=stub.server_address[0], port=stub.server_address[1]
        )
        router = RouterApp(_bare_config(), _FakeManager({0: (address, None)}))
        try:
            for _ in range(50):
                status, answer = router.handle("GET", "/topology/t/logical")
                assert status == 200
                assert answer == {"path": "/topology/t/logical"}
            assert stub.accepted == 1
            assert reading(router, "router.proxied") == 50

            # The shard drops the idle socket: the next call reconnects
            # once, transparently — no 503, nothing counted unavailable.
            stub.hang_up_after_next = True
            assert router.handle("GET", "/topology/t/logical")[0] == 200
            assert router.handle("GET", "/topology/t/logical")[0] == 200
            assert stub.accepted == 2
            assert reading(router, "router.unavailable") == 0

            # Nobody listening: a fresh connection failing is a real
            # transport error, worded as the one refusal.
            stub.shutdown()
            stub.server_close()
            router._clients.close()
            status, refusal = router.handle("GET", "/topology/t/logical")
            assert status == 503
            assert refusal["error"].startswith("shard 0 is unreachable: ")
            assert refusal["retry_after"] == 1 and refusal["shard_id"] == 0
            assert list(refusal) == ["error", "retry_after", "shard_id"]
            assert reading(router, "router.unavailable") == 1
        finally:
            stub.server_close()
            router._fanout.shutdown(wait=False)
            router._clients.close()


# ----------------------------------------------------------------------
# One merge: the router's document and the cluster client's ack agree
# ----------------------------------------------------------------------
_GROUP = 3  # frames per scripted commit group


class _ScriptedShard:
    """A shard app that answers ``write_batch`` from a script.

    ``script`` is ``("ok", committed, rejected, streamed, listed)`` —
    bit patterns choosing which commit groups land and which frames of
    a landed group are rejected, whether the answer carries per-group
    ``commits`` (the folded streaming shape) and which of the two
    ``refused`` shapes it uses — or ``(status, payload)`` for a refusal
    of the whole sub-batch.  The answer depends only on the script and
    the frame count, so the router and a direct caller get the same one.
    """

    raw_body_paths = ("/metrics/write_batch",)

    def __init__(self, config):
        self.config = config
        self.lifecycle = LifecycleController()
        self.telemetry = Telemetry()
        self.script = None

    def handle(self, method, path, query=None, body=None, headers=None):
        if path != "/metrics/write_batch":
            return 404, {"error": f"no scripted answer for {path}"}
        frames, fault = split_frames(bytes(body))
        assert fault is None
        if self.script[0] != "ok":
            return self.script
        _, committed, rejected_bits, streamed, listed = self.script
        count = len(frames)
        acked, rejected, refused, commits = 0, [], [], []
        for group, start in enumerate(range(0, count, _GROUP)):
            members = list(range(start, min(start + _GROUP, count)))
            if not committed >> group & 1:
                entry = {"status": 503, "error": "draining", "retry_after": 2}
                if listed:
                    refused.append({"frames": members, **entry})
                else:
                    refused.append(
                        {"group": group, "frame_start": start,
                         "frames": len(members), **entry}
                    )
                continue
            bad = [
                {"frame": i, "error": "stale"}
                for i in members
                if rejected_bits >> i & 1
            ]
            rejected += bad
            acked += len(members) - len(bad)
            commits.append(
                {"group": group, "frame_start": start,
                 "frames": len(members), "acked": len(members) - len(bad),
                 "rejected": bad, "first_lsn": start + 1,
                 "last_lsn": start + len(members)}
            )
        answer = {
            "frames": count, "acked": acked, "rejected": rejected,
            "first_lsn": commits[0]["first_lsn"] if commits else None,
            "last_lsn": commits[-1]["last_lsn"] if commits else None,
        }
        if streamed:
            answer["commits"] = commits
        if refused:
            answer["refused"] = refused
        return 200, answer


@pytest.fixture(scope="module")
def scripted_fleet():
    """Four scripted shards behind a served router and a cluster client."""
    config = _bare_config()
    shards = {}
    for shard_id in range(4):
        app = _ScriptedShard(config)
        server = CaladriusServer(app, port=0)
        server.start()
        shards[shard_id] = (server, app)
    router = RouterApp(config, _FakeManager(shards))
    router_server = CaladriusServer(router, port=0)
    router_server.start()
    client = _cluster_client(router_server, retries=0)
    client.refresh_ring()
    try:
        yield router, client, {i: app for i, (_, app) in shards.items()}
    finally:
        client.close()
        router_server.stop()
        router._fanout.shutdown(wait=False)
        router._clients.close()
        for server, _ in shards.values():
            server.stop()


def _names_by_owner():
    ring = HashRing(list(range(4)), DEFAULT_VIRTUAL_NODES)
    names: dict[int, str] = {}
    for i in range(200):
        names.setdefault(ring.shard_for(f"topology-{i}"), f"topology-{i}")
    assert sorted(names) == [0, 1, 2, 3]
    return names


_NAMES = _names_by_owner()

_outcomes = st.one_of(
    st.tuples(
        st.just("ok"),
        st.integers(0, 2**12 - 1),  # committed groups
        st.integers(0, 2**30 - 1),  # rejected frames
        st.booleans(),  # streamed commits
        st.booleans(),  # refused as index lists
    ),
    st.just((409, {"error": "epoch 1 is fenced", "fenced": True})),
    st.tuples(
        st.just(503),
        st.fixed_dictionaries(
            {"error": st.just("draining"), "retry_after": st.integers(1, 9)}
        ),
    ),
)


def _refusals(refused):
    return sorted((entry["shard_id"], entry["frames"]) for entry in refused)


class TestOneMerge:
    @settings(max_examples=60, deadline=None)
    @given(
        owners=st.lists(st.integers(0, 3), min_size=1, max_size=30),
        scripts=st.tuples(_outcomes, _outcomes, _outcomes, _outcomes),
    )
    def test_router_document_equals_cluster_ack(
        self, scripted_fleet, owners, scripts
    ):
        router, client, apps = scripted_fleet
        for shard_id, script in enumerate(scripts):
            apps[shard_id].script = script
        raw = encode_frames(
            ("arrivals", 60 * (i + 1), float(i), {"topology": _NAMES[owner]})
            for i, owner in enumerate(owners)
        )
        status, document = router.handle(
            "POST", "/metrics/write_batch", {}, raw
        )
        ack = client.write_batch_raw(raw)
        routed = BatchAck.from_payload(document)

        assert (routed.frames, routed.acked) == (ack.frames, ack.acked)
        assert routed.frames == len(owners)
        assert routed.rejected == ack.rejected
        assert _refusals(routed.refused) == _refusals(ack.refused)

        # Every frame is accounted for exactly once.
        rejected = [entry["frame"] for entry in ack.rejected]
        refused = [i for entry in ack.refused for i in entry["frames"]]
        assert ack.acked + len(rejected) + len(refused) == ack.frames
        assert len(set(rejected + refused)) == len(rejected + refused)
        for entry in ack.refused:
            assert [owners[i] for i in entry["frames"]] == (
                [entry["shard_id"]] * len(entry["frames"])
            )

        # The two views of the one merge.
        assert set(document["per_shard"]) == {str(o) for o in set(owners)}
        assert "commits" not in document
        assert document["first_lsn"] is None and document["last_lsn"] is None
        assert ("refused" in document) == bool(ack.refused)
        landed = ack.acked or ack.rejected or not ack.refused
        assert status == (200 if landed else 503)
        assert {c["shard_id"] for c in ack.commits} <= set(owners)
        if len(set(owners)) > 1:
            assert ack.first_lsn is None and ack.last_lsn is None
