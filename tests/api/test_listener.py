"""The HTTP listener at the byte level: framing, crashes, fuzz, guards.

Everything here talks to :class:`CaladriusServer` over a raw socket —
what a broken or hostile peer can put on the wire must come back as a
structured refusal or a clean close, never a hang, a silent drop or a
leaked in-flight count.
"""

from __future__ import annotations

import json
import logging
import re
import socket
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.app import CaladriusApp
from repro.api.ingest import encode_frames
from repro.api.server import CaladriusServer
from repro.config import load_config
from repro.heron.tracker import TopologyTracker
from repro.timeseries.store import MetricsStore

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
_STATUS_LINE = re.compile(rb"HTTP/1\.1 (\d{3}) [^\r\n]*")


@pytest.fixture(scope="module")
def listener():
    config = load_config({})
    config = replace(config, serving=replace(config.serving, enabled=False))
    app = CaladriusApp(config, TopologyTracker(), MetricsStore())
    with CaladriusServer(app, port=0) as server:
        yield server
    app.shutdown()


def _exchange(server, raw: bytes) -> bytes:
    """Send ``raw``, half-close, and read until the server closes.

    A server that neither answers nor closes trips the socket timeout —
    that is the "hung connection" failure.
    """
    address = (server.host, server.port)
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        try:
            while data := sock.recv(65536):
                chunks.append(data)
        except ConnectionResetError:
            pass  # closed on unread input: abrupt, but a close
    return b"".join(chunks)


def _responses(raw: bytes) -> list[tuple[int, dict[str, str], dict]]:
    """Parse back-to-back JSON responses; asserts each is well formed."""
    parsed = []
    while raw:
        head, sep, rest = raw.partition(b"\r\n\r\n")
        assert sep, f"truncated response head: {raw[:200]!r}"
        status_line, *header_lines = head.split(b"\r\n")
        match = _STATUS_LINE.fullmatch(status_line)
        assert match, f"malformed status line {status_line!r}"
        headers = {}
        for line in header_lines:
            name, _, value = line.decode("latin1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        assert len(rest) >= length, "response body shorter than declared"
        payload = json.loads(rest[:length].decode("utf8"))
        assert isinstance(payload, dict)
        parsed.append((int(match.group(1)), headers, payload))
        raw = rest[length:]
    return parsed


class TestMalformedHead:
    @pytest.mark.parametrize(
        "length_headers",
        [
            b"Content-Length: -5\r\n",
            b"Content-Length: 5\r\nContent-Length: 2\r\n",
            b"Content-Length: 2\r\ncontent-length: 2\r\n",
            b"Content-Length: five\r\n",
        ],
        ids=["negative", "conflicting", "repeated", "non-numeric"],
    )
    def test_ambiguous_length_is_a_400_and_close(
        self, listener, length_headers
    ):
        raw = _exchange(
            listener,
            b"POST /metrics/write HTTP/1.1\r\nHost: x\r\n"
            + length_headers
            + b"\r\n",
        )
        ((status, headers, payload),) = _responses(raw)
        assert status == 400
        assert "content-length" in payload["error"].lower()
        # The body's extent is unknowable, so the connection cannot be
        # reused for a next request.
        assert headers["connection"] == "close"
        assert listener.app.lifecycle.inflight() == 0

    def test_unparseable_target_is_a_400(self, listener):
        raw = _exchange(listener, b"GET http://[::1 HTTP/1.1\r\n\r\n")
        ((status, headers, payload),) = _responses(raw)
        assert status == 400
        assert "error" in payload
        assert headers["connection"] == "close"


    @pytest.mark.parametrize(
        "length, status",
        [(b"", 501), (b"Content-Length: 29\r\n", 400)],
        ids=["chunked", "chunked-and-length"],
    )
    def test_request_transfer_coding_is_refused_unread(
        self, listener, length, status
    ):
        """A chunked request used to be read as body-less: the app
        answered 400 for the empty body and the chunk lines were then
        parsed — and answered — as a second request."""
        body = json.dumps({"name": "m", "samples": [[60, 1.0]]}).encode()
        raw = _exchange(
            listener,
            b"POST /metrics/write HTTP/1.1\r\nHost: x\r\n" + length
            + b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body),
        )
        ((answered, headers, payload),) = _responses(raw)
        assert answered == status
        assert "transfer-encoding" in payload["error"].lower()
        assert headers["connection"] == "close"
        assert len(listener.app.store) == 0  # not a byte of it was applied
        assert listener.app.lifecycle.inflight() == 0

    @pytest.mark.parametrize("body", [b"7", b"[1, 2]", b'"text"'])
    def test_non_object_json_body_is_a_400(self, listener, body):
        raw = _exchange(
            listener,
            b"POST /metrics/write HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(body), body),
        )
        ((status, _, payload),) = _responses(raw)
        assert status == 400
        assert "JSON object" in payload["error"]


class TestHostedAppCrash:
    def test_unexpected_exception_is_a_logged_structured_500(
        self, listener, monkeypatch, caplog
    ):
        def buggy_handle(method, path, query, body, headers=None, encoded=False):
            raise AttributeError("'FollowerApp' object has no attribute 'x'")

        monkeypatch.setattr(listener.app, "handle", buggy_handle)
        body = json.dumps({"name": "m", "samples": [[60, 1.0]]}).encode()
        with caplog.at_level(logging.ERROR, logger="repro.api.server"):
            raw = _exchange(
                listener,
                b"POST /metrics/write HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
            )
        ((status, headers, payload),) = _responses(raw)
        assert status == 500
        assert payload["type"] == "AttributeError"
        assert "no attribute 'x'" in payload["error"]
        assert headers["connection"] == "close"
        (record,) = [r for r in caplog.records if r.exc_info]
        assert record.exc_info[0] is AttributeError
        assert listener.app.lifecycle.inflight() == 0
        # The listener survives the crash.
        monkeypatch.undo()
        ((status, _, _),) = _responses(
            _exchange(listener, b"GET /healthz HTTP/1.1\r\n\r\n")
        )
        assert status == 200


_METHODS = st.sampled_from(["GET", "POST", "PUT", "get", "", "P\x00ST"])
_TARGETS = st.sampled_from(
    [
        "/healthz", "/metrics/write", "/metrics/write_batch",
        "/metrics/read?name=a&name=b", "/metrics/read?name=%ff",
        "http://[::1", "/topologies?", "*", "",
    ]
) | st.text(max_size=30)
_VERSIONS = st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/9", ""])
_HEADERS = st.lists(
    st.sampled_from(
        [
            "Content-Length: 0", "Content-Length: 7", "Content-Length: -1",
            "Content-Length: 99999999999", "Content-Length: 1e3",
            "content-length: 7", "Connection: close", "Connection: keep-alive",
            "X-Request-Deadline: soon", "X-Shard-Epoch: 1",
            "Transfer-Encoding: chunked", "no-colon-here", ": empty-name",
        ]
    )
    | st.text(max_size=40),
    max_size=6,
)
_BODIES = st.sampled_from(
    [
        b"", b"{}", b"{not json", b"\xff\xfe\x00", b'{"name": "m"}', b"7",
        b"[1]",
        encode_frames([("fuzz", 60, 1.0, None)])[:-1],
    ]
) | st.binary(max_size=64)


_END = b"\r\n\r\n"


@st.composite
def _request_like(draw) -> tuple[bytes, int]:
    """Bytes shaped like a request, wrong in at most a few places, and
    how many request heads a listener may find in them."""
    line = " ".join([draw(_METHODS), draw(_TARGETS), draw(_VERSIONS)])
    headers, body = draw(_HEADERS), draw(_BODIES)
    # Frame the body correctly two times in three, so the fuzz reaches
    # body parsing and dispatch and not only the head checks.
    framing = draw(st.sampled_from(["none", "length", "chunked"]))
    if framing == "length":
        headers = [*headers, f"Content-Length: {len(body)}"]
    elif framing == "chunked":
        headers = [*headers, "Transfer-Encoding: chunked"]
        body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
    head = ("\r\n".join([line, *headers])).encode("latin1", "replace") + _END
    if framing != "none" and head.count(_END) == 1:
        return head + body, 1  # the body's bytes are nobody's head
    return head + body, _blob_heads(head + body)


def _blob_heads(blob: bytes) -> int:
    """Heads unframed bytes can hold: one per terminator, and one that
    the next piece's terminator may complete."""
    return blob.count(_END) + 1


class TestFramingFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            _request_like()
            | st.binary(max_size=200).map(lambda b: (b, _blob_heads(b))),
            max_size=3,
        )
    )
    def test_any_bytes_get_a_refusal_or_a_clean_close(self, listener, pieces):
        raw = b"".join(piece for piece, _ in pieces)
        answered = _responses(_exchange(listener, raw))
        for status, _, payload in answered:
            # Never a crash: malformed input is the peer's fault (4xx/431,
            # 501 for a transfer coding the listener does not implement),
            # and whatever happens to be a valid request is just served.
            assert status < 500 or status == 501, (status, payload)
            if status >= 400:
                assert isinstance(payload.get("error"), str)
        # A framed body is never parsed as the next request.
        assert len(answered) <= sum(heads for _, heads in pieces)
        assert listener.app.lifecycle.wait_idle(5), "leaked in-flight count"


class TestOneListener:
    def test_no_second_http_server_under_src(self):
        offenders = [
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if re.search(
                r"^\s*(from\s+http\.server\s+import|import\s+http\.server)",
                path.read_text(),
                re.MULTILINE,
            )
        ]
        assert offenders == []

    def test_no_listener_selector_in_the_config(self):
        # Spelled in two halves so a repo-wide grep for the retired
        # option finds only real uses.
        retired = "async" + "_api"
        assert retired not in (SRC / "config" / "loader.py").read_text()
