"""The client's keep-alive wire against ``http.client``, kept here as the oracle.

``CaladriusClient.exchange`` used to ride ``http.client.HTTPConnection``;
it now owns a small wire (one ``sendall`` per request, a hand-split
response head).  Every response framing a peer can put on the socket must
come out of ``exchange`` exactly as it did: same status, same decoded
body, same ``Retry-After``, same decision to keep or drop the socket,
same kind of failure.  Both sides read scripted sockets, so a response
can be cut and split at any byte without a thread or a sleep.
"""

from __future__ import annotations

import http.client
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import client as client_module
from repro.api.client import TRANSPORT_ERRORS, CaladriusClient
from repro.api.ingest import STREAM_CONTENT_TYPE
from repro.errors import ApiError


class _Segments(io.RawIOBase):
    """What the peer sent, handed out one TCP segment per read."""

    def __init__(self, segments: list[bytes]) -> None:
        self._segments = [s for s in segments if s]

    def readable(self) -> bool:
        return True

    def close(self) -> None:
        pass  # http.client closes its reader per response; the peer stays

    def readinto(self, buffer) -> int:
        if not self._segments:
            return 0  # the peer closed
        segment = self._segments[0]
        count = min(len(buffer), len(segment))
        buffer[:count] = segment[:count]
        if count == len(segment):
            self._segments.pop(0)
        else:
            self._segments[0] = segment[count:]
        return count


class ScriptedSocket:
    """A connected socket whose peer answers with fixed bytes."""

    def __init__(self, segments: list[bytes]) -> None:
        self._raw = _Segments(segments)
        self.sent = b""
        self.closed = False

    def sendall(self, data: bytes) -> None:
        if self.closed:
            raise OSError(9, "Bad file descriptor")
        self.sent += data

    def makefile(self, mode: str, *args, **kwargs):
        return io.BufferedReader(self._raw)

    def setsockopt(self, *args) -> None:
        pass

    def close(self) -> None:
        self.closed = True

    @property
    def requests(self) -> int:
        return self.sent.count(b" HTTP/1.1\r\n")


class _HttpClientWire:
    """The parent commit's transport behind the new wire's interface."""

    def __init__(self, sock: ScriptedSocket) -> None:
        self.sock = sock
        self.used = False
        self._connection = http.client.HTTPConnection("oracle", 80)
        self._connection.sock = sock

    def close(self) -> None:
        self._connection.close()

    def exchange(self, method, path, payload, headers):
        try:
            self._connection.request(method, path, body=payload, headers=headers)
            response = self._connection.getresponse()
            raw = response.read()
        except http.client.HTTPException as exc:
            # The parent listed HTTPException in TRANSPORT_ERRORS.
            raise ConnectionError(str(exc)) from exc
        received = {k.lower(): v for k, v in response.getheaders()}
        return response.status, received, raw, response.will_close


class _OracleClient(CaladriusClient):
    def __init__(self, sockets: list[ScriptedSocket]) -> None:
        super().__init__("oracle", 80, retries=0)
        self._sockets = sockets

    def _connection(self):
        if getattr(self._local, "connection", None) is None:
            self._local.connection = _HttpClientWire(self._sockets.pop(0))
        return self._local.connection


def _through(make_client, sockets: list[ScriptedSocket], requests: int = 1):
    """What ``requests`` exchanges come to, as comparable values."""
    client = make_client(sockets)
    outcomes = []
    for _ in range(requests):
        try:
            status, data, retry_after = client.exchange(
                "POST", "/model/topology/heron/wc", b'{"source_rate": 1}'
            )
        except TRANSPORT_ERRORS as exc:
            assert isinstance(exc, OSError)
            outcomes.append(("transport",))
        except ApiError as exc:
            outcomes.append(("not-json", exc.status))
        else:
            kept = client._local.connection is not None
            outcomes.append((status, data, retry_after, kept))
    client.close()
    return outcomes


def _new_wire(sockets: list[ScriptedSocket]) -> CaladriusClient:
    pending = list(sockets)
    patcher = mock.patch.object(
        client_module.socket, "create_connection",
        lambda address, timeout=None: pending.pop(0),
    )
    client = CaladriusClient("127.0.0.1", 80, retries=0)
    inner_close = client.close

    def close() -> None:
        inner_close()
        patcher.stop()

    patcher.start()
    client.close = close
    return client


def _both(response_segments: list[list[bytes]], requests: int = 1):
    """The same scripted peers through the wire and through the oracle."""
    ours = [ScriptedSocket(s) for s in response_segments]
    theirs = [ScriptedSocket(s) for s in response_segments]
    return (
        _through(_new_wire, ours, requests),
        _through(_OracleClient, theirs, requests),
        ours,
    )


# ----------------------------------------------------------------------
# Response framings
# ----------------------------------------------------------------------
_DOCUMENTS = st.one_of(
    st.dictionaries(
        st.text(max_size=6),
        st.one_of(
            st.integers(-5, 5), st.floats(allow_nan=False), st.text(max_size=8),
            st.none(), st.lists(st.integers(0, 9), max_size=3),
        ),
        max_size=4,
    ).map(lambda d: json.dumps(d).encode()),
    st.just(b'{"error": "shed", "retry_after": 3}'),
    st.sampled_from([b"", b"[1, 2]", b"<html>", b"\xff\xfe", b'{"half": ']),
)
_TOKEN = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-",
    min_size=1, max_size=12,
).map(lambda name: "X-" + name)


def _chunked(body: bytes, sizes: list[int], extension: str, trailer: str) -> bytes:
    out, offset = b"", 0
    for size in sizes:
        piece = body[offset:offset + size]
        if not piece:
            break
        out += b"%x%s\r\n%s\r\n" % (len(piece), extension.encode(), piece)
        offset += len(piece)
    rest = body[offset:]
    if rest:
        out += b"%x\r\n%s\r\n" % (len(rest), rest)
    return out + b"0\r\n" + trailer.encode() + b"\r\n"


@st.composite
def _responses(draw) -> bytes:
    status = draw(st.sampled_from([200, 201, 204, 304, 400, 404, 429, 503, 504]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.1", "HTTP/1.0"]))
    reason = draw(st.sampled_from([" OK", " Service Unavailable", "", " x y z"]))
    body = draw(_DOCUMENTS)
    framing = draw(st.sampled_from(["length", "length", "chunked", "eof", "short"]))
    headers = [
        f"{name}: {draw(st.text(alphabet='abc 123;=', max_size=10))}"
        for name in draw(st.lists(_TOKEN, max_size=4, unique_by=str.lower))
    ]
    headers.append("Content-Type: application/json")
    connection = draw(st.sampled_from([None, None, "close", "keep-alive", "Close"]))
    if connection:
        headers.append(f"Connection: {connection}")
    retry_after = draw(
        st.sampled_from([None, None, "7", "1.5", "0", "-2", "Wed, 21 Oct 2026"])
    )
    if retry_after:
        headers.append(f"Retry-After: {retry_after}")
    if framing == "length":
        headers.append(f"content-length: {len(body)}")
    elif framing == "short":  # the peer promises more than it sends
        headers.append(f"Content-Length: {len(body) + draw(st.integers(1, 9))}")
    elif framing == "chunked":
        headers.append("Transfer-Encoding: chunked")
        body = _chunked(
            body,
            draw(st.lists(st.integers(1, 20), max_size=4)),
            draw(st.sampled_from(["", ";ext=1", "; a; b=2"])),
            draw(st.sampled_from(["", "X-Trailer: t\r\n"])),
        )
    draw(st.randoms(use_true_random=False)).shuffle(headers)
    interim = draw(st.sampled_from(["", "", "HTTP/1.1 100 Continue\r\nX-I: 1\r\n\r\n"]))
    head = f"{interim}{version} {status}{reason}\r\n" + "".join(
        f"{line}\r\n" for line in headers
    )
    return head.encode("latin1") + b"\r\n" + body


def _cut_and_split(raw: bytes, cut: int | None, split: int) -> list[bytes]:
    """``raw`` as two segments, the peer closing early at ``cut``."""
    if cut is not None:
        raw = raw[: cut % (len(raw) + 1)]
    at = split % (len(raw) + 1)
    return [raw[:at], raw[at:]]


class TestSameAsHttpClient:
    @settings(max_examples=300, deadline=None)
    @given(
        _responses(), _responses(),
        st.none() | st.integers(0, 10_000), st.integers(0, 10_000),
    )
    def test_any_framing_any_split_any_early_close(
        self, first, second, cut, split
    ):
        segments = [_cut_and_split(first, cut, split), [second]]
        ours, theirs, _ = _both(segments, requests=2)
        assert ours == theirs

    @pytest.mark.parametrize(
        "raw",
        [
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nRetry-After: 4\r\n\r\n{}",
            b"HTTP/1.1 503 Service Unavailable\r\nTransfer-Encoding: chunked\r\n"
            b"\r\n5;x=1\r\n{\"a\":\r\n3\r\n 1}\r\n0\r\nT: 1\r\n\r\n",
            b"HTTP/1.0 200 OK\r\n\r\n{\"eof\": true}",
            b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{}",
            b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}",
        ],
        ids=["length", "chunked", "http10-eof", "close-eof", "continue"],
    )
    def test_split_at_every_byte_boundary(self, raw):
        for at in range(len(raw) + 1):
            ours, theirs, _ = _both([[raw[:at], raw[at:]]])
            assert ours == theirs, at
            assert ours[0][0] in (200, 503)
        for at in range(len(raw)):  # and closed early at every byte
            ours, theirs, _ = _both([[raw[:at]]])
            assert ours == theirs, at

    @pytest.mark.parametrize(
        "raw",
        [
            b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536 + b"\r\n\r\n{}",
            b"HTTP/1.1 200 " + b"r" * 65536 + b"\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\n" + b"X-H: 1\r\n" * 100 + b"\r\n{}",
            b"HTTP/1.1 2x0 OK\r\n\r\n",
            b"HTTP/1.1 99 Low\r\n\r\n",
            b"HTTP/2.0 200 OK\r\n\r\n",
            b"ICY 200 OK\r\n\r\n",
            b"\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"1" * 65537,
            b"",
        ],
        ids=[
            "long-header", "long-status", "101-header-lines", "bad-status",
            "status-99", "http2", "not-http", "blank", "bad-chunk",
            "long-chunk-line", "closed",
        ],
    )
    def test_malformed_heads_are_transport_errors_both_ways(self, raw):
        ours, theirs, _ = _both([[raw]])
        assert ours == theirs == [("transport",)]

    def test_ninety_nine_headers_are_fine_both_ways(self):
        raw = (
            b"HTTP/1.1 200 OK\r\n" + b"X-H: 1\r\n" * 98
            + b"Content-Length: 2\r\n\r\n{}"
        )
        ours, theirs, _ = _both([[raw]])
        assert ours == theirs == [(200, {}, None, True)]

    def test_streamed_group_commit_acks_fold_into_one_summary(self):
        lines = [
            {"commit": {"group": 0, "frame_start": 0, "frames": 2, "acked": 2,
                        "rejected": [], "first_lsn": 1, "last_lsn": 2}},
            {"done": True, "frames": 2, "acked": 2, "rejected": [],
             "first_lsn": 1, "last_lsn": 2},
        ]
        body = b"".join(
            b"%x\r\n%s\r\n" % (len(data), data)
            for data in (json.dumps(line).encode() + b"\n" for line in lines)
        )
        raw = (
            b"HTTP/1.1 200 OK\r\nContent-Type: " + STREAM_CONTENT_TYPE.encode()
            + b"\r\nTransfer-Encoding: chunked\r\n\r\n" + body + b"0\r\n\r\n"
        )
        ours, theirs, _ = _both([[raw[:70], raw[70:]]])
        assert ours == theirs
        status, data, _, kept = ours[0]
        assert (status, data["acked"], len(data["commits"]), kept) == (200, 2, 1, True)


_OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"


class TestOneWritePerRequest:
    def test_head_and_body_leave_in_one_sendall(self):
        sock = ScriptedSocket([_OK])
        sends = []
        inner = sock.sendall
        sock.sendall = lambda data: (sends.append(data), inner(data))
        _through(_new_wire, [sock])
        (sent,) = sends
        head, _, body = sent.partition(b"\r\n\r\n")
        assert body == b'{"source_rate": 1}'
        assert head.split(b"\r\n") == [
            b"POST /model/topology/heron/wc HTTP/1.1",
            b"Host: 127.0.0.1:80",
            b"Accept-Encoding: identity",
            b"Content-Length: 18",
            b"Content-Type: application/json",
        ]

    def test_a_bodyless_post_still_declares_its_length(self):
        sock = ScriptedSocket([_OK, _OK])
        client = _new_wire([sock])
        client.exchange("POST", "/cluster/ship")
        client.exchange("GET", "/healthz")
        client.close()
        post, get = sock.sent.split(b"\r\n\r\n")[:2]
        assert b"Content-Length: 0" in post
        assert b"Content-Length" not in get


class TestStaleSockets:
    def test_a_reused_socket_found_closed_reconnects_exactly_once(self):
        # The first peer answers once and goes away; the second answers.
        ours, theirs, sockets = _both([[_OK], [_OK]], requests=2)
        assert ours == theirs == [(200, {}, None, True)] * 2
        assert [sock.requests for sock in sockets] == [2, 1]  # one replay

    def test_a_second_dead_socket_is_a_real_transport_error(self):
        ours, theirs, sockets = _both([[_OK], [], [_OK]], requests=2)
        assert ours == theirs == [(200, {}, None, True), ("transport",)]
        assert [sock.requests for sock in sockets] == [2, 1, 0]

    def test_a_fresh_socket_failing_is_not_retried(self):
        ours, theirs, sockets = _both([[], [_OK]])
        assert ours == theirs == [("transport",)]
        assert [sock.requests for sock in sockets] == [1, 0]

    def test_a_socket_is_not_reused_after_connection_close(self):
        closing = b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}"
        ours, theirs, sockets = _both([[closing], [_OK]], requests=2)
        assert ours == theirs == [(200, {}, None, False), (200, {}, None, True)]
        # Not "sent on the dead socket, found stale, replayed": each
        # peer saw exactly one request.
        assert [sock.requests for sock in sockets] == [1, 1]
        assert sockets[0].closed

    def test_mutant_reusing_a_closed_connection_is_caught(self):
        """The check above fails when ``will_close`` is ignored."""
        honest = client_module._Wire.exchange

        def deaf(self, *args):
            status, received, body, _ = honest(self, *args)
            return status, received, body, False

        with mock.patch.object(client_module._Wire, "exchange", deaf):
            with pytest.raises(AssertionError):
                self.test_a_socket_is_not_reused_after_connection_close()
