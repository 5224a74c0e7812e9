"""What the listener answers on its loop thread, against what it did before.

A request whose answer cannot block — a probe, a refusal, a cached
result — is answered where it arrives; everything else still goes to the
worker pool.  Nothing a peer can observe may tell the two apart: the same
request mix is sent over raw sockets to a listener as shipped, to one with
the loop-thread attempt switched off *here* (the pool-only reference lives
in the tests, not in ``src/``) and to ``CaladriusApp.handle`` in process,
framed the way the listener always framed it.  Bytes, ``/serving/stats``
and the thread each piece of work ran on are compared.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.api.app import CaladriusApp
from repro.api.ingest import encode_frames
from repro.api.server import CaladriusServer
from repro.cluster.shipping import SegmentShipper
from repro.config import load_config
from repro.durability import DurableMetricsStore
from repro.serving.cache import ResultCache
from repro.serving.layer import ServingLayer
from tests.clock import Call, ManualClock
from tests.live import poll_until

LOOP_THREAD = "caladrius-http-loop"
#: A budget the app's clock spends between two reads (its ``step``).
EXPIRED = {"X-Request-Deadline": "0.000000001"}


def _clock() -> ManualClock:
    """The app's clock (cache TTL, deadlines, drain age), moved by hand: a
    microsecond per read, so ``EXPIRED`` is gone by the deadline check
    and a drain is still 0.000 s old when ``/healthz`` reports it."""
    return ManualClock(step=1e-6)


def _app(deployment, serving: bool, clock: ManualClock) -> CaladriusApp:
    _, _, _, store, tracker = deployment
    config = load_config(
        {
            "traffic_models": ["stats-summary"],
            "performance_models": ["throughput-prediction"],
        }
    )
    config = replace(config, serving=replace(config.serving, enabled=serving))
    return CaladriusApp(config, tracker, store, clock=clock)


# ----------------------------------------------------------------------
# The three ways to ask
# ----------------------------------------------------------------------
class Service:
    """One app on its own listener, with everything that ran recorded."""

    def __init__(self, deployment, serving: bool = True, inline: bool = True):
        self.clock = _clock()
        self.app = _app(deployment, serving, self.clock)
        self.computed: list[str] = []  # thread of every model computation
        self.looked_up: list[tuple[str, bool]] = []  # (thread, hit) per attempt
        self.handled: list[str] = []  # targets that reached app.handle
        for name in (
            "_traffic_uncached", "_performance_uncached", "_plan_sweep_uncached"
        ):
            setattr(self.app, name, self._recording(getattr(self.app, name)))
        if self.app.serving is not None:
            cached = self.app.serving.cached

            def looked_up(descriptor):
                payload = cached(descriptor)
                self.looked_up.append(
                    (threading.current_thread().name, payload is not None)
                )
                return payload

            self.app.serving.cached = looked_up
        handle = self.app.handle

        def handled(method, path, *rest):
            self.handled.append(f"{method} {path}")
            return handle(method, path, *rest)

        self.app.handle = handled
        self.server = CaladriusServer(self.app, port=0)
        if not inline:
            self.server._nonblocking = None  # the parent's listener
        self.server.start()
        self.sock = socket.create_connection(
            (self.server.host, self.server.port), timeout=10
        )
        self._reader = self.sock.makefile("rb")

    def _recording(self, compute):
        def recorded(*args):
            self.computed.append(threading.current_thread().name)
            return compute(*args)

        return recorded

    def ask(self, method, target, body=None, headers=None) -> bytes:
        """One request on the keep-alive socket; the response's bytes."""
        payload = b"" if body is None else json.dumps(body).encode()
        lines = [f"{method} {target} HTTP/1.1", "Host: t"]
        if body is not None:
            lines.append(f"Content-Length: {len(payload)}")
        lines += [f"{k}: {v}" for k, v in (headers or {}).items()]
        self.sock.sendall("\r\n".join(lines).encode() + b"\r\n\r\n" + payload)
        head = b""
        while not head.endswith(b"\r\n\r\n"):
            line = self._reader.readline()
            assert line, f"connection closed answering {method} {target}"
            head += line
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        return head + self._reader.read(length)

    def close(self) -> None:
        self._reader.close()
        self.sock.close()
        self.server.stop()
        self.app.shutdown()


class InProcess:
    """``CaladriusApp.handle``, framed the way the parent's ``_send`` did."""

    def __init__(self, deployment, serving: bool = True):
        self.clock = _clock()
        self.app = _app(deployment, serving, self.clock)

    def ask(self, method, target, body=None, headers=None) -> bytes:
        self.app.lifecycle.request_started()  # as the listener brackets it
        try:
            status, payload = self.app.handle(
                *_parsed(method, target, body, headers)
            )
        finally:
            self.app.lifecycle.request_finished()
        data = json.dumps(payload).encode("utf8")
        head = (
            f"HTTP/1.1 {status} {http.client.responses[status]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
        )
        retry_after = payload.get("retry_after")
        if isinstance(retry_after, (int, float)):
            head += f"Retry-After: {int(retry_after)}\r\n"
        return head.encode("latin1") + b"\r\n" + data

    def close(self) -> None:
        self.app.shutdown()


def _parsed(method, target, body=None, headers=None) -> tuple:
    """A request as the listener hands it to the app."""
    path, _, raw_query = target.partition("?")
    query = dict(pair.split("=") for pair in raw_query.split("&") if pair)
    lowered = {k.lower(): v for k, v in (headers or {}).items()}
    return method, path, query, body or {}, lowered


def _normalised(raw: bytes) -> bytes:
    """A response with its two run-dependent values fixed: the async job
    id, and how far past its deadline an expired request was."""
    head, _, body = raw.partition(b"\r\n\r\n")
    body = re.sub(rb'"request_id": "[0-9a-f]{32}"', b'"request_id": "ID"', body)
    body = re.sub(rb"\(\d+ ms past", b"(N ms past", body)
    head = re.sub(rb"Content-Length: \d+", b"Content-Length: %d" % len(body), head)
    return head + b"\r\n\r\n" + body


def _stats(asker) -> dict:
    raw = asker.ask("GET", "/serving/stats")
    stats = json.loads(raw.partition(b"\r\n\r\n")[2])
    stats.get("scheduler", {}).pop("avg_compute_seconds", None)  # a timing
    return stats


# ----------------------------------------------------------------------
# The request mix: every modelling route x every outcome
# ----------------------------------------------------------------------
ROUTES = {
    "traffic": (
        "GET", "/model/traffic/heron/{t}?horizon_minutes=30", None,
        ("GET", "/model/traffic/heron/{t}?horizon_minutes=soon", None),
    ),
    "topology": (
        "POST", "/model/topology/heron/{t}",
        {"source_rate": 2e7, "parallelisms": {"splitter": 3}},
        ("POST", "/model/topology/heron/{t}", {"source_rate": "fast"}),
    ),
    "plan_sweep": (
        "POST", "/model/plan_sweep/heron/{t}?top_k=2",
        {"source_rate": 2e7, "plans": [{"splitter": 2}, {"splitter": 4}]},
        ("POST", "/model/plan_sweep/heron/{t}", {"source_rate": 1, "plans": []}),
    ),
}
WC = "word-count"


def _mix():
    """``(label, where it must be answered, request)`` in sending order."""
    for kind, (method, target, body, bad) in ROUTES.items():
        wrong = "POST" if method == "GET" else "GET"
        known = target.format(t=WC)
        join = "&" if "?" in known else "?"
        yield f"{kind} miss", "pool", (method, known, body)
        yield f"{kind} hit", "loop", (method, known, body)
        yield f"{kind} hit again", "loop", (method, known, body)
        yield f"{kind} unknown topology", "loop", (
            method, target.format(t="nope"), body
        )
        yield f"{kind} bad request", "loop", (
            bad[0], bad[1].format(t=WC), bad[2]
        )
        yield f"{kind} wrong method", "loop", (
            wrong, known, {} if wrong == "POST" else None
        )
        yield f"{kind} expired", "loop", (method, known, body, EXPIRED)
        yield f"{kind} async", "pool", (method, f"{known}{join}async=1", body)
        yield f"{kind} unknown priority", "loop", (
            method, f"{known}{join}priority=urgent", body
        )
    yield "healthz", "loop", ("GET", "/healthz")
    yield "readyz", "loop", ("GET", "/readyz")
    yield "post to a probe", "pool", ("POST", "/healthz", {})
    yield "topologies", "pool", ("GET", "/topologies")
    yield "metrics read", "pool", (
        "GET", "/metrics/read?name=emit-count&component=splitter"
    )
    yield "job poll", "pool", ("GET", "/model/result/nope")
    yield "no route", "pool", ("GET", "/model/traffic/heron")
    yield "logical plan", "pool", ("GET", f"/topology/{WC}/logical")


DRAINING = [
    (method, target.format(t=WC), body)
    for method, target, body, _ in ROUTES.values()
] + [("GET", "/readyz"), ("GET", "/healthz")]


def _wait_for_jobs(app) -> None:
    """Async jobs finish on their own pool; the counters are read after."""
    for job in list(app._jobs.values()):
        job.future.exception(timeout=30)


def check_same_bytes_same_counters(deployment, serving: bool = True) -> None:
    shipped = Service(deployment, serving)
    pool_only = Service(deployment, serving, inline=False)
    in_process = InProcess(deployment, serving)
    askers = (shipped, pool_only, in_process)
    try:
        expected_pool = []
        for label, where, request in _mix():
            if label == "healthz":
                # Its breaker window counts every evaluation made so far:
                # the async jobs' too, whenever their pool gets to them.
                for asker in askers:
                    _wait_for_jobs(asker.app)
            answers = [_normalised(asker.ask(*request)) for asker in askers]
            assert answers[0] == answers[1] == answers[2], label
            recomputed = not serving and label.endswith(("hit", "hit again"))
            if where == "pool" or recomputed:
                expected_pool.append(f"{request[0]} {request[1].partition('?')[0]}")
        for asker in askers:
            _wait_for_jobs(asker.app)
        # Which thread did what, on the listener as shipped.
        assert shipped.handled == expected_pool
        assert pool_only.looked_up == []
        assert shipped.computed and LOOP_THREAD not in shipped.computed
        assert all(
            name.startswith(("caladrius-http_", "caladrius-model_"))
            for name in shipped.computed
        )
        assert len(shipped.computed) == len(pool_only.computed)
        if serving:
            hits = [thread for thread, hit in shipped.looked_up if hit]
            assert hits == [LOOP_THREAD] * 6  # two per route, no other
        # Every counter moved once per request whichever thread answered.
        assert _stats(shipped) == _stats(pool_only) == _stats(in_process)
        if serving:
            # Per route: a miss, two hits on the loop, one in the async job.
            stats = _stats(shipped)
            assert (stats["requests"], stats["hits"]) == (12, 9)
        shipped.handled.clear()
        for asker in askers:
            asker.app.lifecycle.begin_drain()
        for request in DRAINING:
            answers = [_normalised(asker.ask(*request)) for asker in askers]
            assert answers[0] == answers[1] == answers[2], request
            assert answers[0].startswith(b"HTTP/1.1 503") == (
                request[1] != "/healthz"
            )
        assert shipped.handled == []  # all five answered on the loop
    finally:
        for asker in askers:
            asker.close()


def check_an_expired_entry_is_recomputed(deployment) -> None:
    shipped = Service(deployment)
    pool_only = Service(deployment, inline=False)
    try:
        method, target, body, _ = ROUTES["topology"]
        request = (method, target.format(t=WC), body)
        for service in (shipped, pool_only):
            first = service.ask(*request)
            assert service.ask(*request) == first
            service.clock.advance(301.0)  # past serving.ttl_seconds
            assert service.ask(*request) == first
            assert len(service.computed) == 2
        assert shipped.looked_up == [
            (LOOP_THREAD, False), (LOOP_THREAD, True), (LOOP_THREAD, False)
        ]
        assert _stats(shipped) == _stats(pool_only)
        assert _stats(shipped)["cache"]["expirations"] == 1
    finally:
        shipped.close()
        pool_only.close()


class TestSameBytesSameCounters:
    def test_every_route_every_outcome(self, deployed_wordcount):
        check_same_bytes_same_counters(deployed_wordcount)

    def test_with_serving_disabled_nothing_is_computed_on_the_loop(
        self, deployed_wordcount
    ):
        check_same_bytes_same_counters(deployed_wordcount, serving=False)

    def test_an_expired_entry_is_recomputed_on_the_pool(self, deployed_wordcount):
        check_an_expired_entry_is_recomputed(deployed_wordcount)

    def test_a_computed_answer_is_its_stored_bytes_for_leader_and_waiters(
        self, deployed_wordcount
    ):
        asker = InProcess(deployed_wordcount)
        app = asker.app
        method, target, body, _ = ROUTES["topology"]
        request = _parsed(method, target.format(t=WC), body)
        arrived, release = threading.Barrier(5), threading.Event()
        compute = app._performance_uncached

        def held(*args):
            assert release.wait(10)
            return compute(*args)

        app._performance_uncached = held

        def ask():
            arrived.wait(10)
            return app.handle(*request, True)

        asks = [Call(ask) for _ in range(4)]
        try:
            arrived.wait(10)
            assert poll_until(lambda: app.serving.stats()["coalesced"] >= 3)
            release.set()
            answers = [call.result() for call in asks]
            assert answers.count(answers[0]) == 4
            status, payload = answers[0]
            assert status == 200 and isinstance(payload, bytes)
            stats = app.serving.stats()
            assert (stats["computations"], stats["coalesced"]) == (1, 3)
            # What an in-process caller decodes, and would encode again.
            status, document = app.handle(*request)
            assert status == 200 and isinstance(document, dict)
            assert json.dumps(document).encode("utf8") == payload
            assert app.handle_nonblocking(*request) == (200, payload)
            # An async job holds the decoded answer, whoever asked.
            _, submitted = app.handle(
                request[0], request[1], {"async": "1"}, request[3], {}, True
            )
            _wait_for_jobs(app)
            _, job = app.handle("GET", f"/model/result/{submitted['request_id']}")
            assert job["result"] == document
        finally:
            release.set()
            asker.close()

    def test_apps_without_the_attempt_go_to_the_pool(self, deployed_wordcount):
        """The router and the follower say nothing about what they can
        answer without blocking, and are asked nothing."""
        from repro.cluster.follower import FollowerApp
        from repro.cluster.router import RouterApp

        assert not hasattr(RouterApp, "handle_nonblocking")
        assert not hasattr(FollowerApp, "handle_nonblocking")
        service = Service(deployed_wordcount, inline=False)
        try:
            assert service.ask("GET", "/healthz").startswith(b"HTTP/1.1 200")
            assert service.handled == ["GET /healthz"]
        finally:
            service.close()


# ----------------------------------------------------------------------
# Mutants the checks above must catch
# ----------------------------------------------------------------------
class TestMutants:
    def test_counting_a_request_and_then_declining(
        self, deployed_wordcount, monkeypatch
    ):
        honest = ServingLayer.cached

        def counts_first(self, descriptor):
            with self._counters:
                self.requests += 1
            payload = honest(self, descriptor)
            if payload is not None:
                with self._counters:
                    self.requests -= 1  # a hit is still booked once
            return payload

        monkeypatch.setattr(ServingLayer, "cached", counts_first)
        with pytest.raises(AssertionError):
            check_same_bytes_same_counters(deployed_wordcount)

    def test_answering_from_an_expired_entry(self, deployed_wordcount, monkeypatch):
        honest = ResultCache.get

        def forgiving(self, key, count_miss=True):
            if not count_miss and key in self._entries:
                return self._entries[key].payload
            return honest(self, key, count_miss)

        monkeypatch.setattr(ResultCache, "get", forgiving)
        with pytest.raises(AssertionError):
            check_an_expired_entry_is_recomputed(deployed_wordcount)

    def test_a_miss_sent_as_other_bytes_than_its_document_encodes_to(
        self, deployed_wordcount, monkeypatch
    ):
        """The listener writes a computed answer as the bytes it was
        stored as: they have to be ``json.dumps`` of what ``execute``
        returns in process (and the pool-only listener encodes)."""
        honest = ServingLayer._compute_and_store

        def compact(self, *args):
            document = json.loads(honest(self, *args))
            return json.dumps(document, separators=(",", ":")).encode("utf8")

        monkeypatch.setattr(ServingLayer, "_compute_and_store", compact)
        with pytest.raises(AssertionError):
            check_same_bytes_same_counters(deployed_wordcount)

    def test_computing_on_the_loop_when_serving_is_disabled(
        self, deployed_wordcount, monkeypatch
    ):
        honest = CaladriusApp._serve

        def eager(self, descriptor, compute, priority, blocking):
            if self.serving is None:
                return compute()
            return honest(self, descriptor, compute, priority, blocking)

        monkeypatch.setattr(CaladriusApp, "_serve", eager)
        with pytest.raises(AssertionError):
            check_same_bytes_same_counters(deployed_wordcount, serving=False)


# ----------------------------------------------------------------------
# The loop-thread rule, observed
# ----------------------------------------------------------------------
#: The only code under ``src/repro`` an attempt may enter.
LOOP_THREAD_MAY_RUN = {
    "api/app.py", "errors.py", "serving/layer.py", "serving/cache.py",
    "serving/fingerprint.py", "serving/precompute.py",
    "durability/deadline.py", "durability/lifecycle.py",
    "durability/breaker.py", "heron/tracker.py", "heron/topology.py",
    "telemetry.py",
}
BLOCKING_C_CALLS = {
    "fsync", "fdatasync", "open", "sendall", "send", "recv", "recv_into",
    "connect", "sleep", "wait", "submit",
}


def test_the_attempt_enters_no_code_that_can_block(deployed_wordcount):
    """Every request of the mix through ``handle_nonblocking`` with the
    profiler on: no store read but ``data_version``, no journal, model,
    scheduler, single-flight or job-pool code, no blocking C call."""
    asker = InProcess(deployed_wordcount)
    app = asker.app
    entered: set[tuple[str, str]] = set()
    c_calls: set[str] = set()

    def profile(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if "/src/repro/" in filename:
                entered.add(
                    (filename.split("/src/repro/")[1], frame.f_code.co_name)
                )
            elif "/concurrent/futures/" in filename:
                entered.add(("concurrent.futures", frame.f_code.co_name))
        elif event == "c_call":
            c_calls.add(arg.__name__)

    try:
        answered = 0
        for label, where, request in _mix():
            parsed = _parsed(*request)
            sys.setprofile(profile)
            try:
                answer = app.handle_nonblocking(*parsed)
            finally:
                sys.setprofile(None)
            assert (answer is None) == (where == "pool"), label
            if answer is None:
                app.handle(*parsed)
            else:
                answered += 1
        assert answered > 20
        files = {filename for filename, _ in entered}
        assert files - {"timeseries/store.py"} <= LOOP_THREAD_MAY_RUN
        assert {
            name for filename, name in entered if filename == "timeseries/store.py"
        } == {"data_version"}
        assert not {"execute", "_compute_and_store", "_recompute"} & {
            name for _, name in entered
        }
        assert not c_calls & BLOCKING_C_CALLS
    finally:
        asker.close()


# ----------------------------------------------------------------------
# No stall
# ----------------------------------------------------------------------
def _timed(service, *request) -> float:
    began = time.perf_counter()
    raw = service.ask(*request)
    assert raw.startswith(b"HTTP/1.1 200"), raw[:80]
    return time.perf_counter() - began


class TestNoStall:
    def test_a_shipping_shard_answers_healthz_on_the_loop(
        self, deployed_wordcount, tmp_path
    ):
        """``SegmentShipper.stats`` does not wait for the lock a shipping
        pass holds across its POSTs: a follower that never answers does
        not hold up the shard's liveness probe, which stays on the loop."""
        listener = socket.create_server(("127.0.0.1", 0))
        posted, release = threading.Event(), threading.Event()

        def stalling_follower():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                posted.set()
                release.wait(10)
                conn.sendall(
                    b"HTTP/1.1 500 Internal Server Error\r\n"
                    b"Content-Length: 2\r\n\r\n{}"
                )

        follower = threading.Thread(target=stalling_follower)
        follower.start()
        store = DurableMetricsStore(tmp_path / "shard", fsync="never")
        store.write("m", 60, 1.0, {"topology": "t"})
        shipper = SegmentShipper(
            store, f"127.0.0.1:{listener.getsockname()[1]}"
        )
        shipping = threading.Thread(target=self._ship_once, args=(shipper,))
        service = Service(deployed_wordcount)
        service.app.shipper = shipper
        try:
            shipping.start()
            assert posted.wait(10)
            assert shipper._mutex.locked()  # the pass is in flight
            assert _timed(service, "GET", "/healthz") < 0.05
            assert service.handled == []  # handle_nonblocking answered it
            raw = service.ask("GET", "/healthz")
            assert b'"shipping": {"target": "127.0.0.1:' in raw
            assert b'"passes": 0' in raw
        finally:
            release.set()
            shipping.join(10)
            follower.join(10)
            listener.close()
            shipper.stop(final_ship=False)
            store.close()
            service.close()

    @staticmethod
    def _ship_once(shipper) -> None:
        try:
            shipper.ship_now()
        except OSError:
            pass  # the stub follower answers 500

    def test_hits_do_not_wait_behind_a_computation(self, deployed_wordcount):
        service = Service(deployed_wordcount)
        other = socket.create_connection(
            (service.server.host, service.server.port), timeout=10
        )
        try:
            method, target, body, _ = ROUTES["topology"]
            hit = (method, target.format(t=WC), body)
            service.ask(*hit)  # primed
            slow = service.app._performance_uncached

            def slowly(*args):
                time.sleep(0.3)  # a real socket: a computation in flight
                return slow(*args)

            service.app._performance_uncached = slowly
            payload = json.dumps({"source_rate": 3e7}).encode()
            began = time.perf_counter()
            other.sendall(
                b"POST /model/topology/heron/%s HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (WC.encode(), len(payload), payload)
            )
            latencies = [_timed(service, *hit) for _ in range(200)]
            assert max(latencies) < 0.05
            assert other.recv(65536).startswith(b"HTTP/1.1 200")
            assert time.perf_counter() - began >= 0.3  # it really was in flight
            assert service.looked_up.count((LOOP_THREAD, True)) == 200
        finally:
            other.close()
            service.close()

    def test_a_probe_is_answered_in_the_middle_of_a_write_batch(
        self, deployed_wordcount
    ):
        service = Service(deployed_wordcount)
        other = socket.create_connection(
            (service.server.host, service.server.port), timeout=10
        )
        committing, release = threading.Event(), threading.Event()

        def stuck_in_fsync(frames):
            committing.set()
            assert release.wait(10)
            return {"frames": len(frames), "acked": 0, "rejected": [],
                    "first_lsn": None, "last_lsn": None}

        service.app.store.ingest_frames = stuck_in_fsync
        try:
            frames = encode_frames([("inline-probe", 60, 1.0, {"topology": "x"})])
            other.sendall(
                b"POST /metrics/write_batch HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                % (len(frames), frames)
            )
            assert committing.wait(10)
            assert _timed(service, "GET", "/healthz") < 0.05
            assert _timed(service, "GET", "/readyz") < 0.05
            release.set()
            assert other.recv(65536).startswith(b"HTTP/1.1 200")
        finally:
            release.set()
            del service.app.store.ingest_frames
            other.close()
            service.close()

    def test_a_hit_does_not_wait_for_the_store_lock(self, deployed_wordcount):
        """A journaling store holds its lock across ``fsync``; the key of
        a cached answer is worked out without it."""
        service = Service(deployed_wordcount)
        try:
            method, target, body, _ = ROUTES["traffic"]
            hit = (method, target.format(t=WC), body)
            service.ask(*hit)
            with service.app.store._lock:
                assert _timed(service, *hit) < 0.05
                assert _timed(service, "GET", "/healthz") < 0.05
            assert service.looked_up[-1] == (LOOP_THREAD, True)
        finally:
            service.close()
