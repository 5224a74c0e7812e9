"""Graceful lifecycle: drain state machine, health endpoints, deadlines."""

from __future__ import annotations

import os
import time

import pytest

from repro.api.app import CaladriusApp
from repro.api.client import CaladriusClient
from repro.api.server import CaladriusServer
from repro.config import load_config
from repro.durability import (
    DRAINING,
    RUNNING,
    STOPPED,
    Deadline,
    DeadlineExceeded,
    LifecycleController,
    check_deadline,
    deadline_scope,
    parse_deadline_header,
)
from repro.errors import ApiError
from repro.heron.tracker import TopologyTracker
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.store import MetricsStore
from tests.clock import Call, ManualClock

_MODEL_CONFIG = {
    "traffic_models": ["stats-summary"],
    "performance_models": ["throughput-prediction"],
}


@pytest.fixture()
def clock():
    """The app's clock: a microsecond passes per read, so a budget of a
    nanosecond is spent by the time a request checks it."""
    return ManualClock(step=1e-6)


@pytest.fixture()
def bare_app(clock):
    """An app over an empty deployment (plus one registered topology)."""
    tracker, store = TopologyTracker(), MetricsStore()
    topology, packing, _ = build_word_count(WordCountParams())
    tracker.register(topology, packing)
    app = CaladriusApp(load_config(_MODEL_CONFIG), tracker, store, clock=clock)
    yield app
    app.shutdown()


class TestLifecycleController:
    def test_state_machine(self):
        lifecycle = LifecycleController()
        assert lifecycle.state == RUNNING
        assert lifecycle.begin_drain() is True
        assert lifecycle.begin_drain() is False  # idempotent
        assert lifecycle.state == DRAINING
        assert lifecycle.is_draining()
        lifecycle.mark_stopped()
        assert lifecycle.state == STOPPED

    def test_wait_idle_blocks_until_requests_finish(self):
        clock = ManualClock()
        lifecycle = LifecycleController(clock)
        lifecycle.request_started()
        waiter = Call(lifecycle.wait_idle, 0.05)
        assert clock.await_waiters(1)
        clock.advance(0.05)  # the timeout passes with the request in flight
        assert waiter.result() is False
        waiter = Call(lifecycle.wait_idle, 5)
        assert clock.await_waiters(1)
        lifecycle.request_finished()
        assert waiter.result() is True
        assert clock.now == 0.05  # the second wait ended on the finish
        assert lifecycle.wait_idle(0) is True

    def test_status_reports_drain_duration(self):
        clock = ManualClock()
        lifecycle = LifecycleController(clock)
        lifecycle.begin_drain()
        clock.advance(2.5)
        status = lifecycle.status()
        assert status["state"] == DRAINING
        assert status["draining_seconds"] == 2.5


class TestHealthEndpoints:
    def test_healthz_always_answers(self, bare_app):
        status, payload = bare_app.handle("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["state"] == RUNNING
        assert payload["breaker"]["state"] == "closed"
        bare_app.lifecycle.begin_drain()
        status, payload = bare_app.handle("GET", "/healthz")
        assert status == 200  # liveness is not readiness

    def test_readyz_flips_on_drain(self, bare_app):
        status, payload = bare_app.handle("GET", "/readyz")
        assert status == 200 and payload["ready"] is True
        bare_app.lifecycle.begin_drain()
        status, payload = bare_app.handle("GET", "/readyz")
        assert status == 503
        assert payload["retry_after"] >= 1

    def test_draining_refuses_modelling_but_allows_reads(self, bare_app):
        bare_app.lifecycle.begin_drain()
        status, payload = bare_app.handle(
            "GET", "/model/traffic/heron/word-count"
        )
        assert status == 503 and "draining" in payload["error"]
        status, payload = bare_app.handle(
            "POST", "/model/topology/heron/word-count", {}, {}
        )
        assert status == 503
        status, payload = bare_app.handle(
            "POST", "/metrics/write", {},
            {"name": "m", "samples": [[60, 1.0]]},
        )
        assert status == 503
        # reads stay up for pollers and load balancers
        assert bare_app.handle("GET", "/topologies")[0] == 200
        assert bare_app.handle("GET", "/topology/word-count/logical")[0] == 200
        assert bare_app.handle("GET", "/serving/stats")[0] == 200


class TestMetricsWriteEndpoint:
    def test_write_and_readback(self, bare_app):
        status, payload = bare_app.handle(
            "POST", "/metrics/write", {},
            {
                "name": "m",
                "tags": {"topology": "word-count"},
                "samples": [[60, 1.0], [120, 2.0]],
            },
        )
        assert status == 200 and payload == {"written": 2}
        series = bare_app.store.get("m", {"topology": "word-count"})
        assert list(series.values) == [1.0, 2.0]

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"name": "", "samples": [[60, 1.0]]},
            {"name": "m", "samples": []},
            {"name": "m", "samples": [[60]]},
            {"name": "m", "samples": [["x", 1.0]]},
            {"name": "m", "samples": [[60, 1.0]], "tags": {"k": 1}},
        ],
    )
    def test_malformed_bodies_are_400(self, bare_app, body):
        status, _ = bare_app.handle("POST", "/metrics/write", {}, body)
        assert status == 400

    def test_out_of_order_timestamps_are_400(self, bare_app):
        ok = {"name": "m", "samples": [[120, 1.0]]}
        assert bare_app.handle("POST", "/metrics/write", {}, ok)[0] == 200
        bad = {"name": "m", "samples": [[60, 2.0]]}
        status, payload = bare_app.handle("POST", "/metrics/write", {}, bad)
        assert status == 400 and "increasing" in payload["error"]


class TestDeadlines:
    def test_parse_header(self):
        assert parse_deadline_header(None) is None
        assert parse_deadline_header("5") == 5.0
        with pytest.raises(ApiError):
            parse_deadline_header("soon")

    @pytest.mark.parametrize("value", ["-1", "0", "inf", "1e400", "nan"])
    def test_a_budget_that_is_not_positive_and_finite_is_400(
        self, bare_app, value
    ):
        status, payload = bare_app.handle(
            "POST", "/model/topology/heron/word-count", {}, {},
            {"X-Request-Deadline": value},
        )
        assert status == 400
        assert "X-Request-Deadline" in payload["error"]

    def test_check_deadline_is_noop_without_scope(self):
        check_deadline()  # must not raise

    def test_check_deadline_is_a_scheduling_point(self, monkeypatch):
        """Every poll hands the interpreter to a thread waiting for it (a
        writer back from its fsync), deadline or not, before it can raise.
        What that buys is measured where it shows — the ledger's
        ``mixed_rw`` acks — not here: a wall-clock assertion on GIL
        hand-offs is at the mercy of every thread earlier tests left."""
        from repro.durability import deadline as deadline_module

        if hasattr(os, "sched_yield"):
            assert deadline_module._yield_interpreter is os.sched_yield
        yields = []
        monkeypatch.setattr(
            deadline_module, "_yield_interpreter", lambda: yields.append(1)
        )
        check_deadline()
        clock = ManualClock()
        with deadline_scope(Deadline(1.0, clock)):
            clock.advance(1.0)
            with pytest.raises(DeadlineExceeded):
                check_deadline()
        assert len(yields) == 2

    def test_expired_deadline_raises_504(self):
        clock = ManualClock()
        deadline = Deadline(1.0, clock)
        clock.advance(0.5)
        assert deadline.remaining() == 0.5 and not deadline.expired()
        clock.advance(1.0)
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceeded) as excinfo:
                check_deadline()
        assert excinfo.value.status == 504

    def test_expired_header_surfaces_as_504_response(self, bare_app):
        status, payload = bare_app.handle(
            "GET",
            "/model/traffic/heron/word-count",
            headers={"X-Request-Deadline": "0.000000001"},
        )
        assert status == 504
        assert payload["deadline"] == "exceeded"

    def test_malformed_header_is_400(self, bare_app):
        status, payload = bare_app.handle(
            "GET", "/topologies", headers={"x-request-deadline": "never"}
        )
        assert status == 400
        assert "X-Request-Deadline" in payload["error"]


class TestGracefulShutdownOverHttp:
    def test_drain_completes_inflight_then_checkpoints(self, bare_app, clock):
        server = CaladriusServer(bare_app, port=0).start()
        client = CaladriusClient("127.0.0.1", server.port, retries=0)
        client.wait_ready(timeout=10)
        assert client.healthz()["state"] == RUNNING

        # hold a synthetic in-flight request across the drain
        bare_app.lifecycle.request_started()
        events: list[str] = []

        def finish_once_the_drain_waits():
            assert clock.await_waiters(1)
            events.append("request-finished")
            bare_app.lifecycle.request_finished()

        finisher = Call(finish_once_the_drain_waits)
        clean = server.shutdown_gracefully(
            drain_timeout=10,
            on_drained=lambda: events.append("checkpointed"),
        )
        finisher.result()
        assert clean is True
        # the request completed BEFORE the final checkpoint ran
        assert events == ["request-finished", "checkpointed"]
        assert bare_app.lifecycle.state == STOPPED

    def test_drain_deadline_gives_up_on_stuck_requests(self, bare_app, clock):
        server = CaladriusServer(bare_app, port=0).start()
        bare_app.lifecycle.request_started()  # never finishes
        try:
            drainer = Call(server.shutdown_gracefully, drain_timeout=30)
            assert clock.await_waiters(1)
            clock.advance(29.5)
            assert clock.await_waiters(1)  # not yet
            clock.advance(0.5)
            assert drainer.result() is False
            assert bare_app.lifecycle.state == STOPPED
        finally:
            bare_app.lifecycle.request_finished()

    def test_readyz_flips_for_real_clients_during_drain(self, bare_app, clock):
        server = CaladriusServer(bare_app, port=0).start()
        client = CaladriusClient("127.0.0.1", server.port, retries=0)
        client.wait_ready(timeout=10)
        bare_app.lifecycle.request_started()  # keep the drain pending
        drainer = Call(server.shutdown_gracefully, drain_timeout=10)
        try:
            assert clock.await_waiters(1)  # draining: waiting for the request
            with pytest.raises(ApiError) as excinfo:
                client.readyz()
            assert excinfo.value.status == 503
            assert excinfo.value.payload.get("retry_after", 0) >= 1
        finally:
            bare_app.lifecycle.request_finished()
            assert drainer.result() is True

    def test_stop_warns_when_serve_thread_hangs(self, bare_app, caplog):
        server = CaladriusServer(bare_app, port=0).start()

        class StuckThread:
            def join(self, timeout=None):
                pass

            def is_alive(self):
                return True

        real_thread = server._thread
        server._loop.call_soon_threadsafe(server._stop_event.set)
        real_thread.join(5)
        server._thread = StuckThread()
        with caplog.at_level("WARNING", logger="repro.api.server"):
            server.stop()
        assert any(
            "did not join within 5s" in record.message
            for record in caplog.records
        )


class TestClientHelpers:
    def test_wait_ready_times_out_against_nothing(self):
        """Polls until the client's clock passes the timeout — about
        ``timeout / poll_seconds`` attempts, none of them waited out."""
        clock = ManualClock()
        client = CaladriusClient(
            "127.0.0.1", 1, timeout=0.2, retries=0, clock=clock
        )
        began = time.perf_counter()
        with pytest.raises(ApiError, match="not ready within"):
            client.wait_ready(timeout=0.5, poll_seconds=0.05)
        assert time.perf_counter() - began < 0.5
        assert len(clock.slept) in (10, 11)  # one poll sleep per attempt
        assert set(clock.slept) == {0.05}
        assert 0.5 <= clock.now < 0.6

    def test_write_metrics_round_trip(self, bare_app):
        with CaladriusServer(bare_app, port=0) as server:
            client = CaladriusClient("127.0.0.1", server.port, retries=0)
            client.wait_ready(timeout=10)
            written = client.write_metrics(
                "latency", [(60, 4.2), (120, 4.5)], {"topology": "word-count"}
            )
            assert written == 2
            series = bare_app.store.get("latency", {"topology": "word-count"})
            assert list(series.values) == [4.2, 4.5]
            (read_back,) = client.read_metrics(
                "latency", {"topology": "word-count"}
            )
            assert read_back["values"] == [4.2, 4.5]
