"""A Python client for the Caladrius API."""

from __future__ import annotations

import json
import random
import socket
import threading
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import urlencode

from repro.api.ingest import (
    FRAMES_CONTENT_TYPE,
    STREAM_CONTENT_TYPE,
    encode_frame,
    merge_stream_lines,
)
from repro.clock import SYSTEM_CLOCK, Clock
from repro.durability.deadline import DEADLINE_HEADER
from repro.errors import ApiError

__all__ = [
    "BatchAck",
    "BatchWriter",
    "CaladriusClient",
    "SOCKET_TRANSPORT",
    "TRANSPORT_ERRORS",
    "Transport",
]

#: What :meth:`CaladriusClient.exchange` raises when no response arrived.
TRANSPORT_ERRORS = (OSError,)

# Bounds on a response head, as ``http.client`` sets them.
_MAX_LINE = 65536
_MAX_HEADERS = 100


class _Wire:
    """One keep-alive HTTP/1.1 connection to the service.

    A request leaves as a single ``sendall`` (head and body in one
    segment, ``TCP_NODELAY``) and the response head is split by hand —
    the two things ``http.client`` spends a request's worth of time on.
    Anything but a well-formed response raises a :class:`ConnectionError`.
    """

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self.sock.makefile("rb")
        self._host = f"Host: {host}:{port}\r\nAccept-Encoding: identity\r\n"
        self.used = False

    def close(self) -> None:
        self._reader.close()
        self.sock.close()

    def _line(self) -> bytes:
        line = self._reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise ConnectionError("response line too long")
        return line

    def exchange(
        self,
        method: str,
        path: str,
        payload: bytes | None,
        headers: Mapping[str, str],
    ) -> tuple[int, dict[str, str], bytes, bool]:
        """Send one request; ``(status, headers, body, will_close)`` back."""
        head = f"{method} {path} HTTP/1.1\r\n{self._host}"
        if payload is not None or method in ("POST", "PUT", "PATCH"):
            head += f"Content-Length: {len(payload or b'')}\r\n"
        for name, value in headers.items():
            head += f"{name}: {value}\r\n"
        self.sock.sendall(head.encode("latin1") + b"\r\n" + (payload or b""))
        status = 100
        while status == 100:  # an interim "Continue" precedes the answer
            line = self._line()
            if not line:
                raise ConnectionResetError("peer closed before a status line")
            version, *rest = line.split(None, 2) or [b""]
            try:
                status = int(rest[0])
            except (IndexError, ValueError):
                status = 0
            if not version.startswith(b"HTTP/1.") or not 100 <= status <= 999:
                raise ConnectionError(f"bad status line {line!r}")
            received: dict[str, str] = {}
            for _ in range(_MAX_HEADERS):  # header lines and the blank one
                line = self._line()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin1").partition(":")
                received[name.strip().lower()] = value.strip()
            else:
                raise ConnectionError(f"more than {_MAX_HEADERS} header lines")
        connection = received.get("connection", "").lower()
        if version == b"HTTP/1.0":
            will_close = (
                "keep-alive" not in connection and "keep-alive" not in received
            )
        else:
            will_close = "close" in connection
        if received.get("transfer-encoding", "").lower() == "chunked":
            body = self._chunked()
        elif status in (204, 304) or status < 200:
            body = b""
        else:
            try:
                length = int(received["content-length"])
            except (KeyError, ValueError):
                length = -1
            if length < 0:  # delimited by the end of the connection
                body, will_close = self._reader.read(), True
            else:
                body = self._read(length)
        return status, received, body, will_close

    def _read(self, length: int) -> bytes:
        data = self._reader.read(length)
        if len(data) < length:
            raise ConnectionError("peer closed mid-body")
        return data

    def _chunked(self) -> bytes:
        chunks = []
        while True:
            try:  # extensions after ";" are ignored
                size = int(self._line().split(b";", 1)[0], 16)
                if size < 0:
                    raise ValueError(size)
            except ValueError:
                raise ConnectionError("bad chunk size") from None
            if size == 0:
                while self._line() not in (b"\r\n", b"\n", b""):
                    pass  # trailers
                return b"".join(chunks)
            chunks.append(self._read(size))
            self._read(2)


#: ``(host, port, timeout)`` → one connection to a server (a :class:`_Wire`
#: or anything with its ``exchange``, ``close`` and ``used``).
Transport = Callable[[str, int, float], _Wire]
#: The operating system's transport: what every ``transport=`` defaults to.
SOCKET_TRANSPORT: Transport = _Wire


#: Statuses worth retrying: the service said "not right now", not "no".
RETRYABLE_STATUSES = frozenset({429, 502, 503, 504})

#: Statuses whose ``Retry-After`` (header or payload field) overrides
#: the exponential backoff schedule: the server's load-shedding (429)
#: and degraded-metrics (503) answers know better than our guess.
HONOR_RETRY_AFTER = frozenset({429, 503})


@dataclass
class BatchAck:
    """The outcome of one ``write_batch`` round-trip.

    ``rejected`` entries are permanent per-frame failures
    (``{"frame": index, "error": message}``); ``refused`` entries are
    retryable whole-group refusals the streaming server reported
    mid-batch (drain/fence arriving between commit groups).  ``commits``
    preserves the per-group ack offsets when the server streamed them.
    """

    frames: int = 0
    acked: int = 0
    rejected: list[dict[str, Any]] = field(default_factory=list)
    first_lsn: int | None = None
    last_lsn: int | None = None
    commits: list[dict[str, Any]] = field(default_factory=list)
    refused: list[dict[str, Any]] = field(default_factory=list)

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]) -> "BatchAck":
        return cls(
            frames=int(data.get("frames") or 0),
            acked=int(data.get("acked") or 0),
            rejected=list(data.get("rejected") or ()),
            first_lsn=data.get("first_lsn"),
            last_lsn=data.get("last_lsn"),
            commits=list(data.get("commits") or ()),
            refused=list(data.get("refused") or ()),
        )


class CaladriusClient:
    """Thin JSON-over-HTTP client mirroring the API endpoints.

    Transient failures — connection refused/reset, or a 429/502/503/504
    response — are retried with exponential backoff and deterministic
    jitter.  When a 429/503 carries ``Retry-After`` (the serving layer's
    load shedding does), that delay is honored instead, capped at
    ``backoff_max_seconds``.  Anything else (other 4xx, malformed
    bodies) surfaces immediately as :class:`~repro.errors.ApiError`.

    Parameters
    ----------
    host / port:
        Where the Caladrius service listens.
    timeout:
        Socket timeout per request attempt, in seconds.
    retries:
        Extra attempts after the first (0 = single shot).
    backoff_seconds / backoff_max_seconds:
        First retry delay and its cap; the delay doubles per attempt.
    jitter:
        Fractional jitter applied to each delay (seeded, so test runs
        are reproducible).
    clock:
        What back-off sleeps, readiness polls and result polls are
        measured on.
    transport:
        ``(host, port, timeout)`` → the connection a thread's requests
        ride (:class:`_Wire`, a socket, by default).  Chosen when a
        connection opens, so the per-request path is the same either way.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        retries: int = 3,
        backoff_seconds: float = 0.1,
        backoff_max_seconds: float = 2.0,
        jitter: float = 0.1,
        clock: Clock = SYSTEM_CLOCK,
        transport: Transport = SOCKET_TRANSPORT,
    ) -> None:
        if retries < 0:
            raise ApiError("retries must be non-negative")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        self.backoff_max_seconds = backoff_max_seconds
        self.jitter = jitter
        self.clock = clock
        self.transport = transport
        self._rng = random.Random(0x5EED)
        # One persistent HTTP/1.1 connection per thread: the server
        # speaks keep-alive, so reusing the socket saves a TCP handshake
        # per request.  Thread-local because a connection carries one
        # exchange at a time and callers share clients across threads.
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> _Wire:
        """This thread's connection, opened on first use.

        Its ``used`` flag matters for error handling: only a *reused*
        socket can be stale (closed server-side between requests), so
        only then is a transparent reconnect-and-retry justified.  A
        fresh socket failing is a real transport error and goes through
        the normal backoff schedule.
        """
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self.transport(self.host, self.port, self.timeout)
            self._local.connection = connection
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def close(self) -> None:
        """Close this thread's persistent connection (idempotent).

        Other threads' connections close when their threads exit (the
        sockets are owned by thread-local storage) or on their own next
        :meth:`close` call.
        """
        self._drop_connection()

    def __enter__(self) -> "CaladriusClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _backoff(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based), jittered."""
        base = min(
            self.backoff_seconds * (2.0 ** (attempt - 1)),
            self.backoff_max_seconds,
        )
        spread = self.jitter * base
        return max(0.0, base + self._rng.uniform(-spread, spread))

    def exchange(
        self,
        method: str,
        path: str,
        payload: bytes | None = None,
        headers: dict[str, str] | None = None,
        content_type: str = "application/json",
    ) -> tuple[int, dict[str, Any], float | None]:
        """One round-trip: (status, decoded JSON body, Retry-After).

        The single-shot primitive under :meth:`_request` and under every
        hop between the service's own tiers (router → shard, manager →
        worker, shipper → follower): no retry, no status check.  It
        rides this thread's keep-alive socket, reconnecting once only
        when a *reused* socket turns out stale.  A streamed NDJSON
        answer (the listener's group-commit acks) is folded into one
        summary dict, so callers see one shape however the batch was
        answered; ``Retry-After`` comes from the header, else from the
        body's ``retry_after``.  Raises :data:`TRANSPORT_ERRORS` when no
        response arrived and :class:`~repro.errors.ApiError` (carrying
        the HTTP status) for a body that is not a JSON object.
        """
        sent = {"Content-Type": content_type} if payload else {}
        if headers:
            sent.update(headers)
        for retry_stale in (True, False):
            connection = self._connection()
            reused = connection.used
            try:
                status, received, raw, will_close = connection.exchange(
                    method, path, payload, sent
                )
            except TRANSPORT_ERRORS:
                # A reused socket the server already closed (keep-alive
                # timeout, restart) fails on first use; reconnect once
                # before treating it as a real transport error.  Fresh
                # connections get no such grace — their failures feed
                # the normal retry/backoff schedule.
                self._drop_connection()
                if not (retry_stale and reused):
                    raise
                continue
            break
        if will_close:
            self._drop_connection()
        else:
            connection.used = True
        retry_after = _parse_retry_after(received.get("retry-after"))
        response_type = received.get("content-type", "").split(";")[0].strip()
        try:
            if response_type == STREAM_CONTENT_TYPE:
                lines = [
                    json.loads(line)
                    for line in raw.decode("utf8").splitlines()
                    if line.strip()
                ]
                data: Any = merge_stream_lines(lines)
            else:
                data = json.loads(raw.decode("utf8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ApiError(
                f"response body is not JSON (HTTP {status})", status
            ) from exc
        if not isinstance(data, dict):
            raise ApiError(
                f"response body is not a JSON object (HTTP {status})", status
            )
        if retry_after is None:
            body_hint = data.get("retry_after")
            if isinstance(body_hint, (int, float)) and not isinstance(
                body_hint, bool
            ):
                retry_after = float(body_hint)
        return status, data, retry_after

    def _request(
        self,
        method: str,
        path: str,
        query: dict[str, Any] | None = None,
        body: dict[str, Any] | None = None,
        deadline_seconds: float | None = None,
        headers: dict[str, str] | None = None,
        raw_body: bytes | None = None,
        content_type: str = "application/json",
    ) -> dict[str, Any]:
        if query:
            path = f"{path}?{urlencode(query)}"
        if raw_body is not None:
            payload: bytes | None = raw_body
        else:
            payload = (
                json.dumps(body).encode("utf8") if body is not None else None
            )
        extra_headers: dict[str, str] | None = None
        if deadline_seconds is not None:
            extra_headers = {DEADLINE_HEADER: str(deadline_seconds)}
        if headers:
            extra_headers = {**(extra_headers or {}), **headers}
        last_error: Exception | None = None
        server_delay: float | None = None
        for attempt in range(self.retries + 1):
            if attempt > 0:
                if server_delay is not None:
                    # The server asked for a specific delay (Retry-After
                    # on a shed/degraded answer); honor it up to the
                    # backoff cap instead of guessing.
                    self.clock.sleep(min(server_delay, self.backoff_max_seconds))
                else:
                    self.clock.sleep(self._backoff(attempt))
            server_delay = None
            try:
                status, data, retry_after = self.exchange(
                    method, path, payload, extra_headers, content_type
                )
            except TRANSPORT_ERRORS as exc:
                last_error = exc
                continue
            if status in RETRYABLE_STATUSES and attempt < self.retries:
                if status in HONOR_RETRY_AFTER and retry_after is not None:
                    server_delay = retry_after
                last_error = ApiError(
                    data.get("error", f"HTTP {status}"), status, data
                )
                continue
            if status >= 400:
                raise ApiError(
                    data.get("error", f"HTTP {status}"), status, data
                )
            return data
        raise ApiError(
            f"{method} {path} failed after {self.retries + 1} attempt(s): "
            f"{last_error}",
            503,
        ) from last_error

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        """Liveness: lifecycle state, breaker stats, recovery report."""
        return self._request("GET", "/healthz")

    def readyz(self) -> dict[str, Any]:
        """Readiness; raises :class:`ApiError` (503) while draining."""
        # Single shot on purpose: retrying a 503 readyz probe would turn
        # "not ready" into a multi-second stall for the caller.
        status, data, _ = self.exchange("GET", "/readyz")
        if status >= 400:
            raise ApiError(data.get("error", f"HTTP {status}"), status, data)
        return data

    def wait_ready(
        self,
        timeout: float = 10.0,
        poll_seconds: float = 0.05,
    ) -> dict[str, Any]:
        """Poll ``/readyz`` until the service admits work.

        Swallows connection errors (the process may still be binding its
        socket) and not-ready answers until ``timeout``, then raises
        :class:`~repro.errors.ApiError` (503) with the last failure.
        """
        deadline = self.clock.monotonic() + timeout
        last: str = "never reached the service"
        while self.clock.monotonic() < deadline:
            try:
                return self.readyz()
            except (*TRANSPORT_ERRORS, ApiError) as exc:
                last = str(exc)
            self.clock.sleep(poll_seconds)
        raise ApiError(
            f"service at {self.host}:{self.port} not ready within "
            f"{timeout:.1f}s: {last}",
            503,
        )

    def write_metrics(
        self,
        name: str,
        samples: list[tuple[int, float]] | list[list[float]],
        tags: dict[str, str] | None = None,
        epoch: int | None = None,
    ) -> int:
        """Durably append samples; returns the count acknowledged.

        ``epoch`` stamps ``X-Shard-Epoch`` for epoch-fenced cluster
        writes: a worker from a different writer generation answers
        with a structured 409 instead of accepting the write.
        """
        body: dict[str, Any] = {
            "name": name,
            "samples": [list(s) for s in samples],
        }
        if tags:
            body["tags"] = tags
        headers: dict[str, str] | None = None
        if epoch is not None:
            headers = {"X-Shard-Epoch": str(epoch)}
        return self._request(
            "POST", "/metrics/write", body=body, headers=headers
        )["written"]

    def write_batch(
        self,
        entries: Iterable[tuple],
        epoch: int | None = None,
    ) -> BatchAck:
        """Send many samples in one framed request; one round-trip.

        ``entries`` is ``(name, timestamp, value)`` or
        ``(name, timestamp, value, tags)`` per sample.  Each sample is
        encoded once into the WAL codec's framing; the server appends
        the frames without re-serialization and commits the batch with
        at most one fsync.  Per-frame failures (bad shape, out-of-order
        timestamp) come back in :attr:`BatchAck.rejected` without
        poisoning the rest; 429/503 answers are retried honoring
        ``Retry-After`` under the client's capped backoff; a fencing
        409 raises :class:`~repro.errors.ApiError` with the structured
        payload so cluster routing can fail over.
        """
        frames = []
        for entry in entries:
            if len(entry) == 3:
                name, timestamp, value = entry
                tags = None
            else:
                name, timestamp, value, tags = entry
            frames.append(encode_frame(name, timestamp, value, tags))
        return self.write_batch_raw(b"".join(frames), epoch=epoch)

    def write_batch_raw(
        self, raw: bytes, epoch: int | None = None
    ) -> BatchAck:
        """``write_batch`` with the frames already encoded.

        The batch-buffering and cluster-routing layers frame samples
        once at ``add()`` time and ship the concatenated bytes here.
        """
        headers: dict[str, str] | None = None
        if epoch is not None:
            headers = {"X-Shard-Epoch": str(epoch)}
        data = self._request(
            "POST",
            "/metrics/write_batch",
            headers=headers,
            raw_body=raw,
            content_type=FRAMES_CONTENT_TYPE,
        )
        return BatchAck.from_payload(data)

    def read_metrics(
        self,
        name: str,
        tags: dict[str, str] | None = None,
        allow_stale: bool = False,
    ) -> list[dict[str, Any]]:
        """Read stored series back (name plus exact tag filters).

        ``allow_stale`` opts into follower reads during a promotion
        window (router only): the payload may trail the primary by the
        replication lag, but answers instead of 503ing.
        """
        query: dict[str, Any] = {"name": name}
        if tags:
            query.update(tags)
        headers: dict[str, str] | None = None
        if allow_stale:
            headers = {"X-Allow-Stale-Read": "1"}
        return self._request("GET", "/metrics/read", query, headers=headers)[
            "series"
        ]

    def state_hash(self) -> dict[str, Any]:
        """The server's store content hash (replica convergence checks)."""
        return self._request("GET", "/cluster/state_hash")

    def ship_now(self) -> dict[str, Any]:
        """Force a synchronous WAL-shipping pass on a replicating shard."""
        return self._request("POST", "/cluster/ship", body={})

    def topologies(self) -> list[str]:
        """Registered topology names."""
        return self._request("GET", "/topologies")["topologies"]

    def serving_stats(self) -> dict[str, Any]:
        """The serving layer's counters (hit rate, sheds, queue depth)."""
        return self._request("GET", "/serving/stats")

    def logical_plan(self, topology: str) -> dict[str, Any]:
        """The logical plan of one topology."""
        return self._request("GET", f"/topology/{topology}/logical")

    def packing_plan(self, topology: str) -> dict[str, Any]:
        """The packing plan of one topology."""
        return self._request("GET", f"/topology/{topology}/packing")

    def traffic(
        self,
        topology: str,
        horizon_minutes: int = 60,
        source_minutes: int | None = None,
        model: str | None = None,
        deadline_seconds: float | None = None,
    ) -> dict[str, Any]:
        """Run the traffic models for a topology."""
        query: dict[str, Any] = {"horizon_minutes": horizon_minutes}
        if source_minutes is not None:
            query["source_minutes"] = source_minutes
        if model is not None:
            query["model"] = model
        return self._request(
            "GET",
            f"/model/traffic/heron/{topology}",
            query,
            deadline_seconds=deadline_seconds,
        )

    def performance(
        self,
        topology: str,
        source_rate: float | None = None,
        parallelisms: dict[str, int] | None = None,
        model: str | None = None,
        horizon_minutes: int = 60,
        deadline_seconds: float | None = None,
    ) -> dict[str, Any]:
        """Run the performance models for a topology (synchronous)."""
        query: dict[str, Any] = {"horizon_minutes": horizon_minutes}
        if model is not None:
            query["model"] = model
        body: dict[str, Any] = {}
        if source_rate is not None:
            body["source_rate"] = source_rate
        if parallelisms is not None:
            body["parallelisms"] = parallelisms
        return self._request(
            "POST",
            f"/model/topology/heron/{topology}",
            query,
            body,
            deadline_seconds=deadline_seconds,
        )

    def plan_sweep(
        self,
        topology: str,
        source_rate: float,
        plans: list[dict[str, int]],
        top_k: int | None = None,
        deadline_seconds: float | None = None,
    ) -> dict[str, Any]:
        """Rank candidate parallelism plans in one request.

        One calibration on the server scores the whole ``plans`` list;
        the response carries the plans ranked by predicted output rate.
        """
        query: dict[str, Any] = {}
        if top_k is not None:
            query["top_k"] = top_k
        return self._request(
            "POST",
            f"/model/plan_sweep/heron/{topology}",
            query,
            {"source_rate": source_rate, "plans": plans},
            deadline_seconds=deadline_seconds,
        )

    def performance_async(
        self,
        topology: str,
        source_rate: float | None = None,
        parallelisms: dict[str, int] | None = None,
        poll_seconds: float = 0.1,
        max_wait_seconds: float = 60.0,
    ) -> dict[str, Any]:
        """Submit an async performance request and poll for the result."""
        body: dict[str, Any] = {}
        if source_rate is not None:
            body["source_rate"] = source_rate
        if parallelisms is not None:
            body["parallelisms"] = parallelisms
        submitted = self._request(
            "POST",
            f"/model/topology/heron/{topology}",
            {"async": "1"},
            body,
        )
        request_id = submitted["request_id"]
        deadline = self.clock.monotonic() + max_wait_seconds
        while self.clock.monotonic() < deadline:
            result = self._request("GET", f"/model/result/{request_id}")
            if result["status"] == "done":
                return result["result"]
            if result["status"] == "error":
                raise ApiError(result.get("error", "modelling failed"), 500)
            self.clock.sleep(poll_seconds)
        raise ApiError(f"request {request_id} timed out", 504)


class BatchWriter:
    """Client-side sample buffering with size/time-based auto-flush.

    ``add()`` encodes the sample into its wire frame immediately (encode
    once, at most one copy on flush) and triggers a flush when the
    buffer reaches ``max_frames`` frames or ``max_bytes`` bytes.  With
    ``max_age_seconds`` set, a daemon thread also flushes any sample
    that has waited longer than that, so a trickle of writes still
    becomes durable promptly.  Background-flush failures are recorded in
    :attr:`errors` (and re-raised by :meth:`close`), acks in
    :attr:`acks`.

    The target may be a :class:`CaladriusClient` (single server) or a
    :class:`~repro.cluster.client.ClusterClient` — anything with a
    ``write_batch_raw(raw, epoch=...)`` method.
    """

    def __init__(
        self,
        client: Any,
        max_frames: int = 1000,
        max_bytes: int = 1 << 20,
        max_age_seconds: float | None = None,
        epoch: int | None = None,
    ) -> None:
        if max_frames < 1:
            raise ApiError("max_frames must be >= 1")
        self._client = client
        self.max_frames = max_frames
        self.max_bytes = max_bytes
        self.max_age_seconds = max_age_seconds
        self.epoch = epoch
        self._frames: list[bytes] = []
        self._bytes = 0
        self._oldest: float | None = None
        self._lock = threading.Lock()
        self._closed = False
        self.acks: list[BatchAck] = []
        self.errors: list[ApiError] = []
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        if max_age_seconds is not None:
            self._thread = threading.Thread(
                target=self._age_loop,
                daemon=True,
                name="caladrius-batch-flush",
            )
            self._thread.start()

    def __len__(self) -> int:
        with self._lock:
            return len(self._frames)

    def add(
        self,
        name: str,
        timestamp: int,
        value: float,
        tags: Mapping[str, str] | None = None,
    ) -> None:
        """Buffer one sample; flushes when a size threshold is crossed."""
        frame = encode_frame(name, timestamp, value, tags)
        with self._lock:
            if self._closed:
                raise ApiError("batch writer is closed")
            self._frames.append(frame)
            self._bytes += len(frame)
            if self._oldest is None:
                self._oldest = SYSTEM_CLOCK.monotonic()
            due = (
                len(self._frames) >= self.max_frames
                or self._bytes >= self.max_bytes
            )
        if due:
            self.flush()

    def flush(self) -> BatchAck | None:
        """Send everything buffered; returns the ack (None if empty).

        The network round-trip happens outside the buffer lock, so
        concurrent ``add()`` calls keep filling the next batch while
        this one is in flight.
        """
        with self._lock:
            if not self._frames:
                return None
            raw = b"".join(self._frames)
            self._frames = []
            self._bytes = 0
            self._oldest = None
        ack = self._client.write_batch_raw(raw, epoch=self.epoch)
        self.acks.append(ack)
        return ack

    def _age_loop(self) -> None:
        assert self.max_age_seconds is not None
        poll = max(0.01, self.max_age_seconds / 4)
        while True:
            SYSTEM_CLOCK.wait(self._wake, poll)
            with self._lock:
                if self._closed:
                    return
                due = (
                    self._oldest is not None
                    and SYSTEM_CLOCK.monotonic() - self._oldest
                    >= self.max_age_seconds
                )
            if due:
                try:
                    self.flush()
                except ApiError as exc:
                    # Surfaced on close(); samples stay buffered?  No —
                    # the batch left the buffer before the send failed.
                    # Record the loss loudly rather than retrying into
                    # a dead server from a daemon thread forever.
                    self.errors.append(exc)

    def close(self) -> None:
        """Flush the remainder and stop the age thread.

        Raises the first recorded background-flush error (after sending
        what is still buffered), so silent data loss cannot hide behind
        the timer thread.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._thread is not None:
            self._wake.set()
            self._thread.join(timeout=5)
            self._thread = None
        self.flush()
        if self.errors:
            raise self.errors[0]

    def __enter__(self) -> "BatchWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _parse_retry_after(raw: str | None) -> float | None:
    """Decode a Retry-After header (delta-seconds form only)."""
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None  # HTTP-date form; fall back to our own backoff
    return max(0.0, value)
