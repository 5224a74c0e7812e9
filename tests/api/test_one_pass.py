"""The listener's connection protocol, driven without a socket.

``_Connection`` is the :class:`asyncio.Protocol` behind every accepted
socket.  Here it is handed a :class:`Transport` that records what it is
asked to do, so the tests can see *when* bytes are written: a cache hit,
a probe or a framing refusal before ``data_received`` returns (no event
loop is running at all), a request for the pool only after the task the
callback started has finished — with reading paused meanwhile.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api.app import CaladriusApp
from repro.api.server import CaladriusServer, _Connection
from repro.config import load_config

TOPOLOGY = "/model/topology/heron/word-count"
PLAN = {"source_rate": 2e7, "parallelisms": {"splitter": 3}}


class Transport:
    """The part of an asyncio transport the listener uses, recorded.

    With ``room`` set, a write that leaves more than ``room`` bytes
    unread pauses the protocol's writing, as a full socket does;
    :meth:`read_all` is the peer catching up.
    """

    def __init__(self, room: int | None = None) -> None:
        self.written = bytearray()
        self.unread = 0
        self.room = room
        self.closed = False
        self.reading = True
        self.protocol: _Connection | None = None

    def write(self, data: bytes) -> None:
        assert not self.closed, "write after close"
        self.written += data
        self.unread += len(data)
        if self.room is not None and self.unread > self.room:
            self.protocol.pause_writing()

    def read_all(self) -> None:
        self.unread = 0
        self.protocol.resume_writing()

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


def request(method: str, target: str, body: dict | None = None) -> bytes:
    payload = b"" if body is None else json.dumps(body).encode()
    head = f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
    if body is not None:
        head += f"Content-Length: {len(payload)}\r\n"
    return head.encode() + b"\r\n" + payload


def response(status: str, payload: bytes) -> bytes:
    return (
        f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode() + payload


@pytest.fixture
def app(deployed_wordcount):
    _, _, _, store, tracker = deployed_wordcount
    config = load_config(
        {
            "traffic_models": ["stats-summary"],
            "performance_models": ["throughput-prediction"],
        }
    )
    app = CaladriusApp(config, tracker, store)
    status, _ = app.handle("POST", TOPOLOGY, {}, PLAN, {}, True)  # primed
    assert status == 200
    yield app
    app.shutdown()


@pytest.fixture
def server(app):
    server = CaladriusServer(app, port=0)  # never started: no socket
    yield server
    server._pool.shutdown(wait=True)


def connect(server, transport: Transport | None = None):
    transport = transport or Transport()
    connection = _Connection(server)
    transport.protocol = connection
    connection.connection_made(transport)
    return connection, transport


@pytest.fixture
def hit(app) -> tuple[bytes, bytes]:
    """A cached-hit request and the bytes the listener answers it with."""
    status, payload = app.handle_nonblocking("POST", TOPOLOGY, {}, PLAN, {})
    assert status == 200 and isinstance(payload, bytes)
    return request("POST", TOPOLOGY, PLAN), response("200 OK", payload)


class TestOnePass:
    def test_a_hit_is_written_before_data_received_returns(self, server, hit):
        raw, answer = hit
        connection, transport = connect(server)
        hits = server.app.serving.stats()["hits"]
        connection.data_received(raw)  # no event loop is running
        assert bytes(transport.written) == answer
        assert connection.task is None and transport.reading
        assert server.app.serving.stats()["hits"] == hits + 1
        assert server.app.lifecycle.inflight() == 0

    def test_a_request_split_at_any_byte_gets_the_same_bytes(self, server, hit):
        raw, answer = hit
        for cut in range(1, len(raw)):
            connection, transport = connect(server)
            connection.data_received(raw[:cut])
            assert transport.written == b"", cut
            connection.data_received(raw[cut:])
            assert bytes(transport.written) == answer, cut
            assert server.app.lifecycle.inflight() == 0

    def test_pipelined_requests_are_answered_in_order(self, server, hit):
        raw, answer = hit
        probe = request("GET", "/healthz")
        connection, transport = connect(server)
        connection.data_received(raw + probe + raw)
        first, rest = bytes(transport.written).split(answer, 1)
        assert first == b""
        assert rest.startswith(b"HTTP/1.1 200 OK") and rest.endswith(answer)
        assert b'"status"' in rest  # the probe's document between them

    def test_a_declared_oversize_body_is_refused_before_it_arrives(self, server):
        connection, transport = connect(server)
        limit = server.app.config.ingest.max_body_bytes
        connection.data_received(
            b"POST /metrics/write HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % (limit + 1)
        )
        assert transport.written.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close\r\n" in transport.written
        assert transport.closed

    def test_eof_closes_once_nothing_is_owed(self, server, hit):
        raw, answer = hit
        connection, transport = connect(server)
        connection.data_received(raw + raw[:10])
        # True: the transport stays open for what is owed; we close it.
        assert connection.eof_received() is True
        assert bytes(transport.written) == answer and transport.closed


class TestHeldConnection:
    def test_a_pool_request_pauses_reading_until_it_is_written(
        self, server, hit
    ):
        raw, answer = hit
        handled = []
        handle = server.app.handle

        def recorded(method, path, *rest):
            handled.append(path)
            return handle(method, path, *rest)

        server.app.handle = recorded

        async def scenario():
            connection, transport = connect(server)
            # A pool request with a hit pipelined behind it.
            connection.data_received(request("GET", "/topologies") + raw)
            assert connection.task is not None and not transport.reading
            assert transport.written == b""  # the hit waits its turn
            assert server.app.lifecycle.inflight() == 1
            await connection.task
            return connection, transport

        connection, transport = asyncio.run(scenario())
        topologies = response("200 OK", b'{"topologies": ["word-count"]}')
        assert bytes(transport.written) == topologies + answer
        assert handled == ["/topologies"]
        assert connection.task is None and transport.reading
        assert server.app.lifecycle.inflight() == 0

    def test_a_full_socket_holds_the_gauge_and_the_next_request(
        self, server, hit
    ):
        raw, answer = hit
        connection, transport = connect(server, Transport(room=16))
        connection.data_received(raw + raw)
        # The first answer is handed over; the socket has no room left.
        assert bytes(transport.written) == answer
        assert not transport.reading
        assert server.app.lifecycle.inflight() == 1
        transport.read_all()
        assert server.app.lifecycle.inflight() == 1  # the second's turn
        assert bytes(transport.written) == answer + answer
        transport.read_all()
        assert server.app.lifecycle.inflight() == 0 and transport.reading

    def test_a_lost_connection_owes_nothing(self, server, hit):
        raw, _ = hit
        connection, transport = connect(server, Transport(room=16))
        connection.data_received(raw)
        assert server.app.lifecycle.inflight() == 1
        transport.closed = True
        connection.connection_lost(ConnectionResetError("peer went away"))
        assert server.app.lifecycle.inflight() == 0
        assert connection not in server._connections
