"""HTTP listener adapting :class:`CaladriusApp` to real sockets.

Beyond socket plumbing the server owns the *graceful lifecycle*: it
brackets every request with the app's
:class:`~repro.durability.LifecycleController` gauge, and
:meth:`CaladriusServer.shutdown_gracefully` implements the SIGTERM
sequence — flip ``/readyz``, refuse new work with 503 + ``Retry-After``,
wait (bounded) for in-flight requests, run the caller's final-checkpoint
hook, then close the socket.  :meth:`install_signal_handlers` wires
SIGTERM/SIGINT to that sequence for ``caladrius serve``.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from repro.api.app import CaladriusApp
from repro.errors import ApiError

__all__ = [
    "CaladriusServer",
    "GracefulServerMixin",
    "DEFAULT_MAX_BODY_BYTES",
    "app_max_body_bytes",
    "parse_query_strict",
]

logger = logging.getLogger("repro.api.server")

DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024


def app_max_body_bytes(app: CaladriusApp) -> int:
    """The request-body cap for this app (``ingest.max_body_bytes``)."""
    ingest = getattr(getattr(app, "config", None), "ingest", None)
    return getattr(ingest, "max_body_bytes", DEFAULT_MAX_BODY_BYTES)


def parse_query_strict(raw_query: str) -> dict[str, str]:
    """Parse a query string, rejecting repeated parameters.

    ``dict(parse_qsl(...))`` silently keeps the *last* occurrence of a
    repeated key, so ``?model=a&model=b`` would quietly model with
    ``b`` — an ambiguous request deserves a 400, not a guess.  Shared
    by the threaded and asyncio front-ends so both transports enforce
    the same contract.
    """
    query: dict[str, str] = {}
    for key, value in parse_qsl(raw_query):
        if key in query:
            raise ApiError(f"duplicate query parameter {key!r}", 400)
        query[key] = value
    return query


def _make_handler(app: CaladriusApp) -> type[BaseHTTPRequestHandler]:
    raw_prefixes = tuple(getattr(app, "raw_body_paths", ()))
    max_body_bytes = app_max_body_bytes(app)

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Buffer the response so status line, headers and body leave in
        # one segment (flushed in _send).  Unbuffered, the body is a
        # second small write that Nagle holds back until the client ACKs
        # the headers — a flat ~40 ms per response wherever the peer
        # delays ACKs on loopback.
        wbufsize = -1

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass  # tests and examples do not want request logging noise

        def _respond(self, method: str) -> None:
            split = urlsplit(self.path)
            try:
                query = parse_query_strict(split.query)
            except ApiError as exc:
                self._send(exc.status, {"error": str(exc), **exc.payload})
                return
            body = {}
            raw_length = self.headers.get("Content-Length")
            try:
                length = int(raw_length or 0)
            except ValueError:
                self.close_connection = True
                self._send(
                    400,
                    {
                        "error": "Content-Length must be an integer, "
                        f"got {raw_length!r}"
                    },
                )
                return
            if length > max_body_bytes:
                # Refuse before reading a byte: the declared size alone
                # is grounds for 413, and never buffering it means one
                # bad client cannot OOM this worker.  The unread body
                # would desynchronise the connection — close it.
                self.close_connection = True
                self._send(
                    413,
                    {
                        "error": "request body too large: "
                        f"{length} > {max_body_bytes} bytes",
                        "max_body_bytes": max_body_bytes,
                        "content_length": length,
                    },
                )
                return
            if length:
                raw = self.rfile.read(length)
                if split.path.startswith(raw_prefixes):
                    # Replication endpoints ship WAL frames — opaque
                    # bytes, not JSON; hand them through untouched.
                    body = raw
                else:
                    try:
                        body = json.loads(raw.decode("utf8"))
                    except json.JSONDecodeError:
                        self._send(400, {"error": "request body is not JSON"})
                        return
            # The in-flight gauge brackets routing AND response writing:
            # a drain must not close the socket mid-response.
            app.lifecycle.request_started()
            try:
                status, payload = app.handle(
                    method, split.path, query, body, headers=dict(self.headers)
                )
                self._send(status, payload)
            finally:
                app.lifecycle.request_finished()

        def _send(self, status: int, payload: dict) -> None:
            # A client that hangs up mid-response (timeout, Ctrl-C,
            # load-generator teardown) surfaces here as a broken pipe.
            # That is the client's problem, not ours: swallow it so the
            # handler thread survives and the in-flight gauge in
            # _respond's finally still decrements — otherwise a drain
            # would wait on a request that already died.
            try:
                data = json.dumps(payload).encode("utf8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                retry_after = payload.get("retry_after")
                if isinstance(retry_after, (int, float)) and not isinstance(
                    retry_after, bool
                ):
                    # Load-shedding (429), degraded-metrics and draining
                    # (503) answers tell clients when to come back.
                    self.send_header("Retry-After", str(int(retry_after)))
                self.end_headers()
                self.wfile.write(data)
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError) as exc:
                self.close_connection = True
                logger.debug(
                    "client %s disconnected mid-response (%s %s): %s",
                    self.client_address,
                    self.command,
                    self.path,
                    exc,
                )

        def do_GET(self) -> None:  # noqa: N802
            self._respond("GET")

        def do_POST(self) -> None:  # noqa: N802
            self._respond("POST")

    return Handler


class _Listener(ThreadingHTTPServer):
    # The socketserver default backlog of 5 resets connections under
    # concurrent bursts; admission control is the serving layer's job,
    # so accept generously and let the scheduler shed with 429 instead.
    request_queue_size = 128
    daemon_threads = True


class GracefulServerMixin:
    """The SIGTERM drain sequence, shared by both HTTP front-ends.

    Requires the host class to provide ``self.app`` (a
    :class:`CaladriusApp`), ``self.stop()``, ``self._shutdown_lock``
    and ``self._shutdown_done``.  Keeping this as literally shared code
    — not a parallel implementation — is what guarantees the asyncio
    server's drain semantics match the threaded server's.
    """

    app: CaladriusApp
    _shutdown_lock: threading.Lock
    _shutdown_done: threading.Event

    def stop(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

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

    def start(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class CaladriusServer(GracefulServerMixin):
    """A threaded HTTP server hosting the Caladrius API.

    Use as a context manager in examples and tests::

        with CaladriusServer(app, port=0) as server:
            client = CaladriusClient("127.0.0.1", server.port)
            ...

    ``port=0`` binds an ephemeral port, exposed as :attr:`port`.
    """

    def __init__(
        self, app: CaladriusApp, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = app
        self._httpd = _Listener((host, port), _make_handler(app))
        self._thread: threading.Thread | None = None
        self._shutdown_lock = threading.Lock()
        self._shutdown_done = threading.Event()

    @property
    def port(self) -> int:
        """The bound TCP port."""
        return self._httpd.server_address[1]

    @property
    def host(self) -> str:
        """The bound host address."""
        return self._httpd.server_address[0]

    def start(self) -> "CaladriusServer":
        """Start serving on a daemon thread."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            if self._thread.is_alive():
                logger.warning(
                    "serve thread did not join within 5s; "
                    "a handler may be blocked — socket is closed, "
                    "continuing shutdown"
                )
            self._thread = None
        self.app.lifecycle.mark_stopped()
