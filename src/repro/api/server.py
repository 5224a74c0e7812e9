"""The HTTP listener: one asyncio server adapting an app to real sockets.

:class:`CaladriusServer` terminates keep-alive connections on a single
``asyncio`` loop, as one :class:`asyncio.Protocol` per connection — idle
connections cost file descriptors, not threads — and bridges each
request into the synchronous hosted app
(:class:`~repro.api.app.CaladriusApp`, the cluster's ``RouterApp`` or a
``FollowerApp``) through a worker pool.  The pool is sized from
``serving.max_concurrent + serving.max_queue`` plus fixed headroom, so
every request the :class:`~repro.serving.PriorityScheduler` would admit
or queue owns a thread and the scheduler stays the one admission gate:
overload is shed there with 429 + ``Retry-After``, never parked in an
executor backlog, and writes still find a thread.

What cannot block is answered in the loop pass that read it: each
``data_received`` frames the requests its bytes complete, and writes a
framing refusal, or what an app with ``handle_nonblocking``
(:class:`~repro.api.app.CaladriusApp`) answers there, before it returns:
``GET /healthz``, ``GET /readyz`` and a synchronous
``/model/{traffic,topology,plan_sweep}`` request that is refused or
whose result is cached — the hit as the bytes stored under its tuple key
(:meth:`~repro.serving.fingerprint.RequestDescriptor.cache_key`).
Misses, writes, other routes and apps without the method leave through
the one pool door (:meth:`CaladriusServer._run`) on a task the callback
starts; the connection reads nothing more until that response is written
(a miss as its stored bytes too).  *The rule for code the loop thread
runs:* no file or socket I/O, no ``fsync``, no journal lock, no wait
for a scheduler slot or a pending answer, no model or calibration code.
The locks it may take are the result cache's, the tracker's, the telemetry
registry's, the precomputer's, the lifecycle's and the circuit
breaker's, each held for O(1) work; the store is read without one
(``MetricsStore.data_version``).  What runs on the pool is timed there:
each call is one ``api.handle`` span in the hosted app's ``telemetry``
registry.

Beyond socket plumbing the server owns the *graceful lifecycle*: it
brackets every request — dispatch *and* response writing — with the
app's :class:`~repro.durability.LifecycleController` gauge, and
:meth:`CaladriusServer.shutdown_gracefully` implements the SIGTERM
sequence — flip ``/readyz``, refuse new work with 503 + ``Retry-After``,
wait (bounded) for in-flight requests, run the caller's final-checkpoint
hook, then close the socket.  :meth:`install_signal_handlers` wires
SIGTERM/SIGINT to that sequence for ``caladrius serve``.

``POST /metrics/write_batch`` gets *streaming group-commit acks* when
the hosted app commits frames itself (``handle_write_batch_frames``): a
batch over ``ingest.commit_max_frames`` is answered as chunked NDJSON —
one ``{"commit": ...}`` line per commit group as its fsync lands, then a
``{"done": true, ...}`` summary; a drain beginning mid-stream refuses
the remaining groups while every streamed ack stands.  Other apps
(router, follower) get the body through ``handle``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from typing import Any
from urllib.parse import parse_qsl, urlsplit

from repro.api.ingest import STREAM_CONTENT_TYPE, split_frames
from repro.clock import SYSTEM_CLOCK
from repro.errors import ApiError

__all__ = ["CaladriusServer", "parse_query_strict"]

logger = logging.getLogger("repro.api.server")

# Bound on the request head (request line + headers); anything larger is
# a 431, which doubles as slowloris header protection.
_MAX_HEAD_BYTES = 64 * 1024
# Pool threads beyond what the scheduler can hold (running + queued):
# writes, health probes and stats reads never wait behind modelling.
_POOL_HEADROOM = 8
_REASONS = {status.value: status.phrase for status in HTTPStatus}


def parse_query_strict(raw_query: str) -> dict[str, str]:
    """Parse a query string, rejecting repeated parameters.

    ``dict(parse_qsl(...))`` silently keeps the *last* occurrence of a
    repeated key, so ``?model=a&model=b`` would quietly model with
    ``b`` — an ambiguous request deserves a 400, not a guess.
    """
    query: dict[str, str] = {}
    for key, value in parse_qsl(raw_query) if raw_query else ():
        if key in query:
            raise ApiError(f"duplicate query parameter {key!r}", 400)
        query[key] = value
    return query


def _parse_head(blob: bytes) -> tuple[str, str, str, dict[str, str]]:
    """Split a request head into (method, target, version, headers)."""
    lines = blob.decode("latin1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, target, version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        name = name.strip().lower()
        if name == "content-length" and name in headers:
            # Two lengths frame the body two ways; letting the last one
            # win is how request smuggling starts.
            raise ValueError("duplicate Content-Length header")
        headers[name] = value.strip()
    return method, target, version, headers


def _crash_payload(exc: Exception) -> dict[str, Any]:
    return {"error": f"internal error: {exc}", "type": type(exc).__name__}


class CaladriusServer:
    """The HTTP server hosting the Caladrius API (or a router/follower).

    Use as a context manager in examples and tests::

        with CaladriusServer(app, port=0) as server:
            client = CaladriusClient("127.0.0.1", server.port)
            ...

    ``port=0`` binds an ephemeral port, exposed as :attr:`port` once
    :meth:`start` returns.
    """

    def __init__(
        self, app: Any, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = app
        self._requested = (host, port)
        self._bound: tuple[str, int] | None = None
        self._max_body_bytes = app.config.ingest.max_body_bytes
        self._commit_max_frames = app.config.ingest.commit_max_frames
        self._raw_prefixes = tuple(app.raw_body_paths)
        # Group commits are streamed to an app that commits frames itself
        # (a router or follower takes the body through handle()), and
        # answered on the loop thread by one that says what it can
        # answer without blocking.
        self._commits_frames = hasattr(app, "handle_write_batch_frames")
        self._nonblocking = getattr(app, "handle_nonblocking", None)
        serving = app.config.serving
        self._pool = ThreadPoolExecutor(
            max_workers=(
                serving.max_concurrent + serving.max_queue + _POOL_HEADROOM
            ),
            thread_name_prefix="caladrius-http",
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._connections: set[_Connection] = set()
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._shutdown_lock = threading.Lock()
        self._shutdown_done = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port."""
        if self._bound is None:
            raise RuntimeError("server is not started")
        return self._bound[1]

    @property
    def host(self) -> str:
        """The bound host address."""
        if self._bound is None:
            raise RuntimeError("server is not started")
        return self._bound[0]

    def start(self) -> "CaladriusServer":
        """Bind and serve on a daemon thread running the event loop."""
        self._thread = threading.Thread(
            target=self._run_loop, daemon=True, name="caladrius-http-loop"
        )
        self._thread.start()
        if not SYSTEM_CLOCK.wait(self._started, 10):
            raise RuntimeError("server failed to start within 10s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        finally:
            loop.close()

    async def _serve(self) -> None:
        host, port = self._requested
        try:
            # Accept generously (backlog): admission control is the
            # serving layer's job, not the kernel's.
            server = await asyncio.get_running_loop().create_server(
                lambda: _Connection(self), host, port, backlog=128
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._stop_event = asyncio.Event()
        sockname = server.sockets[0].getsockname()
        self._bound = (sockname[0], sockname[1])
        self._started.set()
        await self._stop_event.wait()
        server.close()
        # shutdown_gracefully already waited for in-flight requests;
        # anything left is an idle keep-alive connection — close it.
        tasks = [c.task for c in self._connections if c.task is not None]
        for connection in list(self._connections):
            connection.transport.close()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await server.wait_closed()

    def stop(self) -> None:
        """Stop serving and release the socket."""
        if self._stop_event is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=5)
            if self._thread.is_alive():
                logger.warning(
                    "serve thread did not join within 5s; "
                    "a handler may be blocked — continuing shutdown"
                )
            self._thread = None
        self._pool.shutdown(wait=True)
        self.app.lifecycle.mark_stopped()

    def __enter__(self) -> "CaladriusServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def shutdown_gracefully(
        self,
        drain_timeout: float | None = None,
        on_drained: Callable[[], None] | None = None,
    ) -> bool:
        """Drain and stop; returns ``True`` when the drain ran clean.

        Sequence: flip the lifecycle to *draining* (``/readyz`` → 503,
        new work refused), wait up to ``drain_timeout`` seconds for
        in-flight requests to finish, run ``on_drained`` (the CLI hooks
        WAL flush + final checkpoint here), then close the socket.
        Idempotent: concurrent signals collapse into one shutdown.
        """
        if drain_timeout is None:
            drain_timeout = self.app.config.durability.drain_timeout_seconds
        with self._shutdown_lock:
            if self._shutdown_done.is_set():
                return True
            clean = True
            if self.app.lifecycle.begin_drain():
                clean = self.app.lifecycle.wait_idle(drain_timeout)
                if not clean:
                    logger.warning(
                        "drain deadline (%.1fs) passed with %d request(s) "
                        "still in flight; shutting down anyway",
                        drain_timeout,
                        self.app.lifecycle.inflight(),
                    )
            if on_drained is not None:
                try:
                    on_drained()
                except Exception:
                    logger.exception("on_drained hook failed")
                    clean = False
            self.stop()
            self._shutdown_done.set()
            return clean

    def install_signal_handlers(
        self,
        drain_timeout: float | None = None,
        on_drained: Callable[[], None] | None = None,
    ) -> threading.Event:
        """Route SIGTERM/SIGINT into :meth:`shutdown_gracefully`.

        Returns an event that is set once shutdown completes — the CLI
        main thread waits on it instead of sleeping in a loop.  The
        handler spawns a thread because the drain blocks and Python
        signal handlers run on the main thread.
        """

        def drain() -> None:
            try:
                self.shutdown_gracefully(drain_timeout, on_drained)
            finally:
                self._shutdown_done.set()

        def _handle(signum: int, _frame) -> None:
            logger.info(
                "received %s; draining", signal.Signals(signum).name
            )
            threading.Thread(
                target=drain, name="caladrius-drain", daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)
        return self._shutdown_done

    def _run(self, fn: Callable[..., Any], *args: Any) -> asyncio.Future:
        """The one door to the worker pool, for the synchronous app."""
        return asyncio.get_running_loop().run_in_executor(
            self._pool, self._timed, fn, args
        )

    def _timed(self, fn: Callable[..., Any], args: tuple) -> Any:
        """One pool-side call into the app: an ``api.handle`` span."""
        with self.app.telemetry.span("api.handle"):
            return fn(*args)


class _Connection(asyncio.Protocol):
    """One keep-alive connection, its requests answered one at a time.

    A request for the pool (:attr:`task`), or a response the socket has
    no room for yet, holds the connection: reading pauses until that
    response is written.  The app's in-flight gauge brackets each
    request from its framing to the transport taking its response.
    """

    def __init__(self, server: CaladriusServer) -> None:
        self.server, self.app = server, server.app
        self.transport: Any = None
        self.task: asyncio.Task | None = None
        self._buffer = bytearray()
        self._head: tuple | None = None  # framed, waiting for its body
        self._eof = self._closing = self._paused = self._owed = False

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self._closing = True
        self.server._connections.discard(self)
        self.resume_writing()  # no more room will come: nothing is owed

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        if self._owed:
            self._owed = False
            self._resume(True)

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._serve_buffered()

    def eof_received(self) -> bool:
        self._eof = True
        self._serve_buffered()
        return True  # what is owed still goes out; _framed closes

    def _serve_buffered(self) -> None:
        """Answer every whole request in the buffer, in order, until one
        has to wait for the pool or for room in the socket."""
        while not (self._closing or self._owed or self.task):
            request = self._framed()
            if request is None:
                return
            self._begin(*request)
        if not self._closing:
            self.transport.pause_reading()

    def _framed(self) -> tuple | None:
        """The next whole request in the buffer, or ``None`` while it is
        incomplete or once its head was refused (and the socket closed)."""
        buffer = self._buffer
        if self._head is None:
            end = buffer.find(b"\r\n\r\n")
            if end > _MAX_HEAD_BYTES or (
                end < 0 and len(buffer) - 3 > _MAX_HEAD_BYTES
            ):
                return self._refuse(431, "request head too large")
            if end < 0:
                return self._close() if self._eof else None
            try:
                method, target, version, headers = _parse_head(buffer[:end])
                split = urlsplit(target)
            except ValueError as exc:
                return self._refuse(400, str(exc))
            del buffer[:end + 4]
            raw_length = headers.get("content-length")
            if "transfer-encoding" in headers:
                # Request transfer codings are not implemented; read as
                # body-less, its chunks would parse as the next request.
                # Both framings at once is the smuggling shape.
                return self._refuse(
                    501 if raw_length is None else 400,
                    "request Transfer-Encoding is not supported: "
                    "frame the body with Content-Length alone",
                )
            try:
                length = int(raw_length or 0)
                if length < 0:
                    raise ValueError(raw_length)
            except ValueError:
                return self._refuse(
                    400, "Content-Length must be a non-negative "
                    f"integer, got {raw_length!r}",
                )
            limit = self.server._max_body_bytes
            if length > limit:
                # Refuse before reading a byte: the declared size is
                # grounds for 413, and one bad client cannot OOM this
                # worker.  The unread body would desynchronise the
                # connection — close it.
                return self._refuse(
                    413, f"request body too large: {length} > {limit} bytes",
                    max_body_bytes=limit, content_length=length,
                )
            keep_alive = version == "HTTP/1.1" and (
                headers.get("connection", "").lower() != "close")
            self._head = (length, method, split.path, split.query, headers,
                          keep_alive)
        length = self._head[0]
        if len(buffer) < length:
            # A client that hangs up between (or inside) requests.
            return self._close() if self._eof else None
        head, self._head = self._head, None
        body = bytes(memoryview(buffer)[:length])
        del buffer[:length]
        return head, body

    def _refuse(self, status: int, error: str, **fields: Any) -> None:
        self._send(status, {"error": error, **fields}, False)
        self._close()

    def _close(self) -> None:
        self._closing = True
        self.transport.close()

    def _begin(self, head: tuple, body: bytes) -> None:
        """Answer one request here, or start the task that finishes it."""
        _, method, path, raw_query, headers, keep_alive = head
        self.app.lifecycle.request_started()
        try:
            answer = self._respond(
                method, path, raw_query, body, headers, keep_alive
            )
        except Exception as exc:
            return self._finished(self._crashed(exc, method, path))
        if type(answer) is tuple:
            self._finished(self._send(*answer, keep_alive))
        else:
            self.task = asyncio.ensure_future(
                self._complete(answer, keep_alive, method, path)
            )

    def _respond(
        self, method: str, path: str, raw_query: str, body_bytes: bytes,
        headers: dict[str, str], keep_alive: bool,
    ) -> Any:
        """``(status, payload)`` to write now, or an awaitable doing the
        pool's part that gives one — ``(None, keep_alive)`` once it
        streamed it."""
        server = self.server
        try:
            query = parse_query_strict(raw_query)
            if (
                path == "/metrics/write_batch"
                and server._commits_frames
                and method.upper() == "POST"
            ):
                # Lengths and CRCs here; every JSON decode runs on the
                # pool.
                frames, fault = split_frames(body_bytes)
                if not frames and fault is None:
                    raise ApiError("write_batch body contains no frames")
                return self._write_batch(frames, fault, headers, keep_alive)
        except ApiError as exc:
            return exc.status, {"error": str(exc), **exc.payload}
        if path.startswith(server._raw_prefixes):
            # WAL frames and replication segments are opaque bytes, not
            # JSON; hand them through untouched.
            body: Any = body_bytes
        elif body_bytes:
            try:
                body = json.loads(body_bytes.decode("utf8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                return 400, {"error": "request body is not JSON"}
            if not isinstance(body, dict):
                return 400, {"error": "request body must be a JSON object"}
        else:
            body = {}
        args = (method, path, query, body, headers)
        if server._nonblocking is None:
            return server._run(self.app.handle, *args)
        # A computed answer, like a cached one, comes back as its bytes.
        return server._nonblocking(*args) or server._run(
            self.app.handle, *args, True
        )

    async def _complete(
        self, pending: Any, keep_alive: bool, method: str, path: str
    ) -> None:
        """Write what the pool answered, then go on with the buffer."""
        try:
            status, payload = await pending
            alive = (payload if status is None  # streamed already
                     else self._send(status, payload, keep_alive))
        except asyncio.CancelledError:
            self.app.lifecycle.request_finished()  # the server is stopping
            raise
        except Exception as exc:
            alive = self._crashed(exc, method, path)
        self.task = None
        self._resume(alive)

    def _crashed(self, exc: Exception, method: str, path: str) -> bool:
        # A bug in the hosted app (or a model), not a refusal: say so, so
        # the client does not mistake it for a transport error and
        # blindly re-send a possibly-applied write.
        logger.exception("unhandled error serving %s %s", method, path)
        return self._send(500, _crash_payload(exc), False)

    def _finished(self, alive: bool) -> None:
        """A response is written: the gauge drops once the socket has
        room again, and a connection that is done closes."""
        if alive and self._paused:
            self._owed = True  # resume_writing finishes it
            return
        self.app.lifecycle.request_finished()
        if not alive:
            self._close()

    def _resume(self, alive: bool) -> None:
        """A held request is written: finish it, take the next one."""
        self._finished(alive)
        if not self._closing:
            self.transport.resume_reading()
            self._serve_buffered()

    async def _write_batch(
        self, frames: list[bytes], fault: ApiError | None,
        headers: dict[str, str], keep_alive: bool,
    ) -> tuple[int | None, Any]:
        """Commit a ``write_batch`` body on the pool: one commit group as
        a JSON response, more group by group, each ack streamed as it lands.

        A body that is not one clean commit group is checked whole first: a
        payload that is not JSON refuses it all, and outranks a framing
        fault behind it.  A ``{"commit": ...}`` line leaves once its group's
        WAL flush returned: its frames are durable when it arrives.
        """
        run, step = self.server._run, self.server._commit_max_frames
        try:
            if len(frames) > step or fault is not None:
                await run(self.app.store.frame_samples, frames)
                if fault is not None:
                    raise fault
            if len(frames) <= step:
                return await run(
                    self.app.handle_write_batch_frames, frames, headers
                )
        except ApiError as exc:
            return exc.status, {"error": str(exc), **exc.payload}
        head = ("HTTP/1.1 200 OK\r\n"
                f"Content-Type: {STREAM_CONTENT_TYPE}\r\n"
                "Transfer-Encoding: chunked\r\n")
        if not keep_alive:
            head += "Connection: close\r\n"
        self.transport.write(head.encode("latin1") + b"\r\n")
        acked, rejected, refused = 0, [], []
        first_lsn = last_lsn = crash = None
        for group_index, start in enumerate(range(0, len(frames), step)):
            if self.transport.is_closing():
                # The client lost its acks, not its data: every streamed
                # commit is already durable, and no later one is made.
                return None, False
            group = frames[start:start + step]
            if crash is None:
                try:
                    status, payload = await run(
                        self.app.handle_write_batch_frames, group, headers
                    )
                except Exception as exc:
                    # The 200 head is gone, so the crash is reported
                    # in-band; later groups are not attempted — they
                    # would land ahead of this one's retry.
                    logger.exception("unhandled error in commit group")
                    crash = _crash_payload(exc)
            if crash is not None:
                status, payload = 500, crash
            commit = {"group": group_index, "frame_start": start,
                      "frames": len(group)}
            if status == 200:
                # Rebase per-group frame indexes onto the batch.
                group_rejected = [
                    {**entry, "frame": start + entry["frame"]}
                    for entry in payload.get("rejected", ())
                ]
                rejected += group_rejected
                acked += payload.get("acked", 0)
                commit.update(
                    acked=payload.get("acked", 0), rejected=group_rejected,
                    first_lsn=payload.get("first_lsn"),
                    last_lsn=payload.get("last_lsn"),
                )
                if first_lsn is None:
                    first_lsn = commit["first_lsn"]
                if commit["last_lsn"] is not None:
                    last_lsn = commit["last_lsn"]
            else:
                # Drain/fence/read-only arrived mid-stream: this
                # group (and its frames) was refused, retryably —
                # already-streamed acks stand.
                commit = {**commit, "status": status, **payload}
                refused.append(commit)
            self._write_chunk({"commit": commit})
        summary = {
            "done": True, "frames": len(frames), "acked": acked,
            "rejected": rejected, "first_lsn": first_lsn, "last_lsn": last_lsn,
        }
        if refused:
            summary["refused"] = refused
        self._write_chunk(summary)
        self.transport.write(b"0\r\n\r\n")
        return None, keep_alive

    def _write_chunk(self, line: dict[str, Any]) -> None:
        data = json.dumps(line).encode("utf8") + b"\n"
        self.transport.write(b"%x\r\n%s\r\n" % (len(data), data))

    def _send(
        self, status: int, payload: dict[str, Any] | bytes, keep_alive: bool
    ) -> bool:
        """Write one JSON response; returns whether the connection lives.
        ``payload`` as ``bytes`` is an encoded document (a cached or just
        computed 200, never a ``retry_after`` carrier), sent as it is."""
        if isinstance(payload, bytes):
            data, retry_after = payload, None
        else:
            data = json.dumps(payload).encode("utf8")
            retry_after = payload.get("retry_after")
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
        )
        if isinstance(retry_after, (int, float)) and not isinstance(
            retry_after, bool
        ):
            # Load-shedding (429), degraded-metrics and draining (503)
            # answers tell clients when to come back.
            head += f"Retry-After: {int(retry_after)}\r\n"
        if not keep_alive:
            head += "Connection: close\r\n"
        if self.transport.is_closing():
            # A client that hung up (timeout, Ctrl-C, load-generator
            # teardown) is its own problem; the gauge still drops, so a
            # drain never waits on a dead request.
            logger.debug("client disconnected mid-response")
            return False
        # Head and body leave in one write: a second small segment
        # would sit behind Nagle until the peer ACKs the first.
        self.transport.write(head.encode("latin1") + b"\r\n" + data)
        return keep_alive
