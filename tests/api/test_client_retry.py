"""Client resilience: retry with backoff against a flaky server, and
non-JSON response bodies wrapped in ApiError."""

from __future__ import annotations

import http.server
import json
import threading

import pytest

from repro.api.client import CaladriusClient
from repro.errors import ApiError
from tests.clock import ManualClock


class _FlakyHandler(http.server.BaseHTTPRequestHandler):
    """Serves `behaviour` for the first `failures` requests, then JSON."""

    # "close" | "503" | "429" | "429_body" | "503_body" | "409_body"
    # | "pending" | "html" | "empty"
    behaviour = "close"
    failures = 0
    seen = 0
    retry_after = 7

    def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
        cls = type(self)
        cls.seen += 1
        if cls.seen <= cls.failures:
            if cls.behaviour == "close":
                self.connection.close()
                return
            if cls.behaviour == "503":
                body = json.dumps({"error": "warming up"}).encode()
                self.send_response(503)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                return
            if cls.behaviour == "pending":
                return self._json({"status": "pending"})
            if cls.behaviour in ("429", "429_body", "503_body", "409_body"):
                body = json.dumps(
                    {"error": "overloaded", "retry_after": cls.retry_after}
                ).encode()
                self.send_response(int(cls.behaviour[:3]))
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                if cls.behaviour == "429":
                    self.send_header("Retry-After", str(cls.retry_after))
                self.end_headers()
                self.wfile.write(body)
                return
        if cls.behaviour == "html" and cls.seen <= cls.failures + 1:
            body = b"<html>gateway error</html>"
            self.send_response(502)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if cls.behaviour == "empty" and cls.seen <= cls.failures + 1:
            self.send_response(200)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if cls.behaviour == "pending":
            return self._json({"status": "done", "result": {"ok": True}})
        self._json({"topologies": ["word-count"]})

    def do_POST(self):  # noqa: N802 - the async submit of "pending"
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self._json({"request_id": "r1"})

    def _json(self, document):
        body = json.dumps(document).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # quiet
        pass


@pytest.fixture()
def flaky_server():
    """Start a server; yields a factory configuring its flakiness."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
    # A short poll: shutdown() waits out one poll interval (0.5 s by default).
    thread = threading.Thread(
        target=server.serve_forever, args=(0.01,), daemon=True
    )
    thread.start()

    def configure(
        behaviour: str, failures: int, retry_after: int = 7
    ) -> tuple[str, int]:
        _FlakyHandler.behaviour = behaviour
        _FlakyHandler.failures = failures
        _FlakyHandler.seen = 0
        _FlakyHandler.retry_after = retry_after
        return server.server_address

    yield configure
    server.shutdown()
    server.server_close()


def _client(host, port, retries=3, **kwargs):
    """A client on a ManualClock, and the sleeps it recorded."""
    clock = ManualClock()
    client = CaladriusClient(
        host, port, timeout=5.0, retries=retries,
        backoff_seconds=0.01, backoff_max_seconds=0.05,
        clock=clock, **kwargs,
    )
    return client, clock.slept


class TestRetries:
    def test_retrying_client_survives_dropped_connections(self, flaky_server):
        host, port = flaky_server("close", failures=2)
        client, sleeps = _client(host, port)
        assert client.topologies() == ["word-count"]
        assert len(sleeps) == 2  # one backoff per failed attempt

    def test_old_behaviour_raises_without_retries(self, flaky_server):
        host, port = flaky_server("close", failures=2)
        client, _ = _client(host, port, retries=0)
        with pytest.raises(ApiError, match="failed after 1 attempt"):
            client.topologies()

    def test_503_retried_until_healthy(self, flaky_server):
        host, port = flaky_server("503", failures=2)
        client, sleeps = _client(host, port)
        assert client.topologies() == ["word-count"]
        assert len(sleeps) == 2

    def test_503_exhausting_retries_surfaces_status(self, flaky_server):
        host, port = flaky_server("503", failures=10)
        client, _ = _client(host, port, retries=2)
        with pytest.raises(ApiError) as excinfo:
            client.topologies()
        assert excinfo.value.status == 503
        assert "warming up" in str(excinfo.value)

    def test_backoff_grows_exponentially(self, flaky_server):
        host, port = flaky_server("close", failures=3)
        client, sleeps = _client(host, port)
        assert client.topologies() == ["word-count"]
        assert len(sleeps) == 3
        assert sleeps[0] < sleeps[1] < sleeps[2]
        # jitter keeps each delay within 10% of the nominal schedule
        for observed, nominal in zip(sleeps, (0.01, 0.02, 0.04)):
            assert abs(observed - nominal) <= 0.1 * nominal + 1e-12

    def test_negative_retries_rejected(self):
        with pytest.raises(ApiError, match="non-negative"):
            CaladriusClient("localhost", 1, retries=-1)


class TestRetryAfter:
    def test_429_retried_until_success(self, flaky_server):
        host, port = flaky_server("429", failures=2)
        client, sleeps = _client(host, port)
        assert client.topologies() == ["word-count"]
        assert len(sleeps) == 2

    def test_server_delay_capped_at_max_backoff(self, flaky_server):
        # Retry-After: 7 far exceeds backoff_max_seconds=0.05; the
        # client must honor the hint but cap it at its own ceiling.
        host, port = flaky_server("429", failures=2, retry_after=7)
        client, sleeps = _client(host, port)
        client.topologies()
        assert sleeps == [0.05, 0.05]

    def test_small_server_delay_used_verbatim(self, flaky_server):
        # Retry-After: 0 is below the backoff schedule; exactly zero
        # sleep proves the header (not jittered backoff) set the delay.
        host, port = flaky_server("429", failures=1, retry_after=0)
        client, sleeps = _client(host, port)
        client.topologies()
        assert sleeps == [0.0]

    def test_body_retry_after_used_when_header_missing(self, flaky_server):
        host, port = flaky_server("429_body", failures=1, retry_after=0)
        client, sleeps = _client(host, port)
        client.topologies()
        assert sleeps == [0.0]

    def test_429_exhausting_retries_surfaces_status(self, flaky_server):
        host, port = flaky_server("429", failures=10)
        client, _ = _client(host, port, retries=2)
        with pytest.raises(ApiError) as excinfo:
            client.topologies()
        assert excinfo.value.status == 429
        assert "overloaded" in str(excinfo.value)

    def test_503_body_hint_is_honored_and_capped(self, flaky_server):
        # The cluster router's refusal while a shard is down: the hint
        # is a body field.  This loop is the only one that waits it out
        # — a cluster client's router fallback is one call through it.
        host, port = flaky_server("503_body", failures=2, retry_after=5)
        client, sleeps = _client(host, port)
        assert client.topologies() == ["word-count"]
        assert sleeps == [0.05, 0.05]  # 5s hint capped at backoff_max

    def test_409_with_a_hint_is_never_retried(self, flaky_server):
        # A fencing conflict is an answer, not "not right now".
        host, port = flaky_server("409_body", failures=10, retry_after=1)
        client, sleeps = _client(host, port)
        with pytest.raises(ApiError) as excinfo:
            client.topologies()
        assert excinfo.value.status == 409
        assert sleeps == []


class TestAsyncPoll:
    def test_polls_wait_on_the_injected_sleep(self, flaky_server):
        host, port = flaky_server("pending", failures=3)
        client, sleeps = _client(host, port)
        result = client.performance_async("word-count", poll_seconds=0.25)
        assert result == {"ok": True}
        assert sleeps == [0.25, 0.25, 0.25]


class TestNonJsonBodies:
    def test_html_error_page_wrapped_with_status(self, flaky_server):
        host, port = flaky_server("html", failures=0)
        client, _ = _client(host, port, retries=0)
        with pytest.raises(ApiError) as excinfo:
            client.topologies()
        assert excinfo.value.status == 502
        assert "not JSON" in str(excinfo.value)
        assert "HTTP 502" in str(excinfo.value)

    def test_empty_body_wrapped_with_status(self, flaky_server):
        host, port = flaky_server("empty", failures=0)
        client, _ = _client(host, port, retries=0)
        with pytest.raises(ApiError) as excinfo:
            client.topologies()
        assert excinfo.value.status == 200
        assert "not JSON" in str(excinfo.value)
