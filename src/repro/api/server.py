"""The HTTP listener: one asyncio server adapting an app to real sockets.

:class:`CaladriusServer` terminates keep-alive connections on a single
``asyncio`` loop — idle connections cost file descriptors, not threads —
and bridges each request into the synchronous hosted app
(:class:`~repro.api.app.CaladriusApp`, the cluster's ``RouterApp`` or a
``FollowerApp``) through a worker pool.  The pool is sized from
``serving.max_concurrent + serving.max_queue`` plus fixed headroom, so
every request the :class:`~repro.serving.PriorityScheduler` would admit
or queue owns a thread and the scheduler stays the one admission gate:
overload is shed there with 429 + ``Retry-After``, never parked in an
executor backlog, and writes still find a thread.

What cannot block is answered where it arrives.  An app that has
``handle_nonblocking`` (:class:`~repro.api.app.CaladriusApp`) is offered
each request on the loop thread first, and answers ``GET /healthz``,
``GET /readyz`` and a synchronous ``/model/{traffic,topology,plan_sweep}``
request that is refused or whose result is cached — the hit as the
cached bytes, written to the socket as they are.  A miss, a write, every
other route and every app without the method go to the pool (the miss
comes back from it as the bytes it was stored as, too).  *The rule
for code the loop thread runs:* no file or socket I/O, no ``fsync``, no
journal lock, no scheduler or single-flight wait, no model or
calibration code.  The locks it may take are the result cache's, the
tracker's, the telemetry registry's, the precomputer's, the lifecycle's
and the circuit breaker's, each held for O(1) work; the store is read
without one (``MetricsStore.data_version``).  What runs on the pool is
timed there: each call is one ``api.handle`` span in the hosted app's
``telemetry`` registry.

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
batch over ``ingest.commit_max_frames`` is chunked into commit groups
and answered as chunked NDJSON — one ``{"commit": ...}`` line per group
as its fsync lands, then a final ``{"done": true, ...}`` summary.  A
drain beginning mid-stream refuses the remaining groups while every
already-streamed ack stands.  Apps without that method (router,
follower) get the body through ``handle`` like any other route.
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

# Bound on the request head (request line + headers); readuntil refuses
# anything larger, which doubles as slowloris header protection.
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
    for key, value in parse_qsl(raw_query):
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
        # Streaming group commits need an app that commits frames
        # itself; a router or follower takes the body through handle().
        self._commits_frames = hasattr(app, "handle_write_batch_frames")
        # ... and answers on the loop thread one that says what it can
        # answer without blocking.
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
        self._conn_tasks: set[asyncio.Task] = set()
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
            server = await asyncio.start_server(
                self._handle_connection,
                host,
                port,
                limit=_MAX_HEAD_BYTES,
                backlog=128,
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
        # anything left is an idle keep-alive reader — cancel it.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await server.wait_closed()

    def stop(self) -> None:
        """Stop serving and release the socket."""
        loop = self._loop
        if (
            loop is not None
            and not loop.is_closed()
            and self._stop_event is not None
        ):
            loop.call_soon_threadsafe(self._stop_event.set)
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

        def _handle(signum: int, _frame) -> None:
            logger.info(
                "received %s; draining", signal.Signals(signum).name
            )
            threading.Thread(
                target=self._graceful_then_set,
                args=(drain_timeout, on_drained),
                name="caladrius-drain",
                daemon=True,
            ).start()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)
        return self._shutdown_done

    def _graceful_then_set(
        self,
        drain_timeout: float | None,
        on_drained: Callable[[], None] | None,
    ) -> None:
        try:
            self.shutdown_gracefully(drain_timeout, on_drained)
        finally:
            self._shutdown_done.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                ):
                    return  # client hung up between requests
                except asyncio.LimitOverrunError:
                    await self._send(
                        writer, 431, {"error": "request head too large"}, False
                    )
                    return
                if not await self._handle_request(reader, writer, head):
                    return
        except asyncio.CancelledError:
            return  # server stopping; connection is idle by contract
        except (BrokenPipeError, ConnectionResetError):
            return
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover - best-effort close
                pass

    async def _handle_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        head: bytes,
    ) -> bool:
        """Serve one request; returns False when the connection is done."""
        try:
            method, target, version, headers = _parse_head(head)
            split = urlsplit(target)
        except ValueError as exc:
            return await self._send(writer, 400, {"error": str(exc)}, False)
        keep_alive = (
            version == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close"
        )
        raw_length = headers.get("content-length")
        if "transfer-encoding" in headers:
            # Request transfer codings are not implemented; reading the
            # request as body-less would parse its chunks as the next
            # request.  Both framings at once is the smuggling shape.
            return await self._send(
                writer,
                501 if raw_length is None else 400,
                {"error": "request Transfer-Encoding is not supported: "
                 "frame the body with Content-Length alone"},
                False,
            )
        try:
            length = int(raw_length or 0)
            if length < 0:
                raise ValueError(raw_length)
        except ValueError:
            return await self._send(
                writer,
                400,
                {
                    "error": "Content-Length must be a non-negative "
                    f"integer, got {raw_length!r}"
                },
                False,
            )
        if length > self._max_body_bytes:
            # Refuse before reading a byte: the declared size alone is
            # grounds for 413, and never buffering it means one bad
            # client cannot OOM this worker.  The unread body would
            # desynchronise the connection — close it.
            return await self._send(
                writer,
                413,
                {
                    "error": "request body too large: "
                    f"{length} > {self._max_body_bytes} bytes",
                    "max_body_bytes": self._max_body_bytes,
                    "content_length": length,
                },
                False,
            )
        body_bytes = b""
        if length:
            try:
                body_bytes = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return False
        # The in-flight gauge brackets dispatch AND response writing: a
        # drain must not close the socket mid-response.
        self.app.lifecycle.request_started()
        try:
            status, payload = await self._respond(
                writer, method, split.path, split.query, body_bytes,
                headers, keep_alive,
            )
            if status is None:
                return payload  # the response was streamed
            return await self._send(writer, status, payload, keep_alive)
        except Exception as exc:
            # A bug in the hosted app (or a model), not a refusal: say
            # so, so the client does not mistake it for a transport
            # error and blindly re-send a possibly-applied write.
            logger.exception(
                "unhandled error serving %s %s", method, split.path
            )
            return await self._send(writer, 500, _crash_payload(exc), False)
        finally:
            self.app.lifecycle.request_finished()

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        raw_query: str,
        body_bytes: bytes,
        headers: dict[str, str],
        keep_alive: bool,
    ) -> tuple[int | None, Any]:
        """Answer one framed request: ``(status, payload)`` to send, or
        ``(None, keep_alive)`` when the answer was streamed already."""
        try:
            query = parse_query_strict(raw_query)
            if (
                self._commits_frames
                and method.upper() == "POST"
                and path == "/metrics/write_batch"
            ):
                # Lengths and CRCs here; every JSON decode runs on the
                # pool.  A body that is not one clean commit group is
                # checked whole there before any part of it commits: a
                # payload that is not JSON refuses it all, and outranks
                # a framing fault behind it.
                frames, fault = split_frames(body_bytes)
                streamed = len(frames) > self._commit_max_frames
                if streamed or fault is not None:
                    await self._run(self.app.store.frame_samples, frames)
                    if fault is not None:
                        raise fault
                if not frames:
                    raise ApiError("write_batch body contains no frames")
                if streamed:
                    return None, await self._stream_commits(
                        writer, frames, headers, keep_alive
                    )
                # One commit group: a plain JSON response, no
                # streaming overhead.
                return await self._run(
                    self.app.handle_write_batch_frames, frames, headers
                )
        except ApiError as exc:
            return exc.status, {"error": str(exc), **exc.payload}
        if path.startswith(self._raw_prefixes):
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
        if self._nonblocking is None:
            return await self._run(
                self.app.handle, method, path, query, body, headers
            )
        answer = self._nonblocking(method, path, query, body, headers)
        if answer is not None:
            return answer
        # ... and a computed answer, like a cached one, as its bytes.
        return await self._run(
            self.app.handle, method, path, query, body, headers, True
        )

    async def _run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run the synchronous app on the worker pool."""
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, self._timed, fn, args
        )

    def _timed(self, fn: Callable[..., Any], args: tuple) -> Any:
        """One pool-side call into the app: an ``api.handle`` span."""
        with self.app.telemetry.span("api.handle"):
            return fn(*args)

    # ------------------------------------------------------------------
    # Streaming batched ingest
    # ------------------------------------------------------------------
    async def _stream_commits(
        self,
        writer: asyncio.StreamWriter,
        frames: list[bytes],
        headers: dict[str, str],
        keep_alive: bool,
    ) -> bool:
        """Commit groups one by one, streaming each ack as it lands.

        Each ``{"commit": ...}`` line is written after that group's
        WAL flush returns, so a client can treat every streamed frame
        range as durable the moment the line arrives — even if the
        connection later dies mid-batch.
        """
        head = (
            "HTTP/1.1 200 OK\r\n"
            f"Content-Type: {STREAM_CONTENT_TYPE}\r\n"
            "Transfer-Encoding: chunked\r\n"
        )
        if not keep_alive:
            head += "Connection: close\r\n"
        try:
            writer.write(head.encode("latin1") + b"\r\n")
            acked = 0
            rejected: list[dict[str, Any]] = []
            refused: list[dict[str, Any]] = []
            first_lsn: int | None = None
            last_lsn: int | None = None
            crash: dict[str, Any] | None = None
            step = self._commit_max_frames
            for group_index, start in enumerate(range(0, len(frames), step)):
                group = frames[start:start + step]
                if crash is None:
                    try:
                        status, payload = await self._run(
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
                commit: dict[str, Any] = {
                    "group": group_index,
                    "frame_start": start,
                    "frames": len(group),
                }
                if status == 200:
                    # Rebase per-group frame indexes onto the batch.
                    group_rejected = [
                        {**entry, "frame": start + entry["frame"]}
                        for entry in payload.get("rejected", ())
                    ]
                    rejected.extend(group_rejected)
                    acked += payload.get("acked", 0)
                    commit.update(
                        acked=payload.get("acked", 0),
                        rejected=group_rejected,
                        first_lsn=payload.get("first_lsn"),
                        last_lsn=payload.get("last_lsn"),
                    )
                    if first_lsn is None:
                        first_lsn = payload.get("first_lsn")
                    if payload.get("last_lsn") is not None:
                        last_lsn = payload.get("last_lsn")
                else:
                    # Drain/fence/read-only arrived mid-stream: this
                    # group (and its frames) was refused, retryably —
                    # already-streamed acks stand.
                    commit = {**commit, "status": status, **payload}
                    refused.append(commit)
                await self._write_chunk(writer, {"commit": commit})
            summary: dict[str, Any] = {
                "done": True,
                "frames": len(frames),
                "acked": acked,
                "rejected": rejected,
                "first_lsn": first_lsn,
                "last_lsn": last_lsn,
            }
            if refused:
                summary["refused"] = refused
            await self._write_chunk(writer, summary)
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (BrokenPipeError, ConnectionResetError):
            # The client lost its acks, not its data: every streamed
            # commit is already durable.
            return False
        return keep_alive

    async def _write_chunk(
        self, writer: asyncio.StreamWriter, line: dict[str, Any]
    ) -> None:
        data = json.dumps(line).encode("utf8") + b"\n"
        writer.write(b"%x\r\n%s\r\n" % (len(data), data))
        await writer.drain()

    # ------------------------------------------------------------------
    # Response writing
    # ------------------------------------------------------------------
    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any] | bytes,
        keep_alive: bool,
    ) -> bool:
        """Write one JSON response; returns whether the connection lives.

        ``payload`` as ``bytes`` is an already-encoded document (a cached
        or just-computed 200, so never a ``retry_after`` carrier) and is
        sent as it is.
        """
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
        try:
            # Head and body leave in one write: a second small segment
            # would sit behind Nagle until the peer ACKs the first.
            writer.write(head.encode("latin1") + b"\r\n" + data)
            await writer.drain()
        except (BrokenPipeError, ConnectionResetError) as exc:
            # A client that hangs up mid-response (timeout, Ctrl-C,
            # load-generator teardown) is the client's problem, not
            # ours: swallow it so the gauge in the caller's finally
            # still decrements and a drain never waits on a dead request.
            logger.debug("client disconnected mid-response: %s", exc)
            return False
        return keep_alive
