"""HTTP keep-alive in CaladriusClient, and the server's handling of
clients that disconnect mid-response."""

from __future__ import annotations

import asyncio
import logging
import threading

import pytest

from repro.api.app import CaladriusApp
from repro.api.client import CaladriusClient
from repro.api.server import CaladriusServer
from repro.config import load_config


@pytest.fixture(scope="module")
def live_service(deployed_wordcount):
    _, _, _, store, tracker = deployed_wordcount
    config = load_config(
        {
            "traffic_models": ["stats-summary"],
            "performance_models": ["throughput-prediction"],
        }
    )
    app = CaladriusApp(config, tracker, store)
    with CaladriusServer(app, port=0) as server:
        yield server
    app.shutdown()


class TestKeepAlive:
    def test_connection_is_reused_across_requests(self, live_service):
        with CaladriusClient(live_service.host, live_service.port) as client:
            client.healthz()
            first = client._local.connection
            assert first is not None
            client.topologies()
            client.healthz()
            # Same socket object: no reconnect between requests.
            assert client._local.connection is first

    def test_stale_socket_reconnects_transparently(self, live_service):
        with CaladriusClient(
            live_service.host, live_service.port, retries=0
        ) as client:
            client.healthz()
            # Simulate a server-side keep-alive timeout: the socket dies
            # under the client between requests.
            client._local.connection.sock.close()
            # retries=0, so only the stale-connection retry can save this.
            assert client.healthz()["status"] in ("ok", "degraded")

    def test_connections_are_per_thread(self, live_service):
        client = CaladriusClient(live_service.host, live_service.port)
        try:
            client.healthz()
            main_connection = client._local.connection
            seen: list = []

            def worker():
                client.healthz()
                seen.append(client._local.connection)

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=30)
            assert seen and seen[0] is not main_connection
        finally:
            client.close()

    def test_close_is_idempotent_and_reopens_on_demand(self, live_service):
        client = CaladriusClient(live_service.host, live_service.port)
        client.healthz()
        client.close()
        client.close()
        assert client._local.connection is None
        # A closed client is not dead: the next call reconnects.
        assert client.healthz()["status"] in ("ok", "degraded")
        client.close()


class _DeadWriter:
    """A stream writer whose peer went away partway through a response."""

    def __init__(self, fail_with: type[Exception]) -> None:
        self.fail_with = fail_with
        self.writes = 0

    def write(self, data: bytes) -> None:
        self.writes += 1
        raise self.fail_with("peer went away")

    async def drain(self) -> None:
        pass


class TestClientDisconnectMidResponse:
    @pytest.mark.parametrize(
        "error", [BrokenPipeError, ConnectionResetError]
    )
    def test_send_swallows_disconnects(self, deployed_wordcount, error, caplog):
        _, _, _, store, tracker = deployed_wordcount
        app = CaladriusApp(load_config({}), tracker, store)
        try:
            server = CaladriusServer(app, port=0)
            writer = _DeadWriter(error)
            with caplog.at_level(logging.DEBUG, logger="repro.api.server"):
                alive = asyncio.run(  # must not raise
                    server._send(writer, 200, {"ok": True}, True)
                )
            assert writer.writes >= 1
            # The connection is reported dead so the connection loop
            # exits instead of trying to read another request from it.
            assert alive is False
            assert any(
                "disconnected mid-response" in message
                for message in caplog.messages
            )
        finally:
            app.shutdown()

    def test_send_still_raises_programming_errors(self, deployed_wordcount):
        _, _, _, store, tracker = deployed_wordcount
        app = CaladriusApp(load_config({}), tracker, store)
        try:
            server = CaladriusServer(app, port=0)
            with pytest.raises(TypeError):
                # Unserialisable payloads are bugs, not disconnects.
                asyncio.run(
                    server._send(
                        _DeadWriter(BrokenPipeError), 200,
                        {"bad": object()}, True,
                    )
                )
        finally:
            app.shutdown()
