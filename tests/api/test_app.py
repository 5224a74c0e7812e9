"""Tests for the API-tier routing and async job handling (no sockets)."""

from __future__ import annotations

import pytest

from repro.api.app import CaladriusApp
from repro.config import load_config
from repro.durability.breaker import breaker_view
from tests.clock import ManualClock

M = 1e6
PERFORMANCE = "/model/topology/heron/word-count"
SWEEP = "/model/plan_sweep/heron/word-count"


def _finished(app, request_id: str) -> dict:
    """The job's poll once its pool worker is done (a bounded real wait:
    the computation runs on real threads)."""
    app._jobs[request_id].future.exception(timeout=30)
    status, result = app.handle("GET", f"/model/result/{request_id}")
    assert status == 200
    return result


@pytest.fixture()
def app(deployed_wordcount):
    _, _, _, store, tracker = deployed_wordcount
    config = load_config(
        {
            "traffic_models": ["stats-summary"],
            "performance_models": [
                "throughput-prediction",
                "backpressure-evaluation",
            ],
        }
    )
    application = CaladriusApp(config, tracker, store)
    yield application
    application.shutdown()


class TestTopologyEndpoints:
    def test_list_topologies(self, app):
        status, payload = app.handle("GET", "/topologies")
        assert status == 200
        assert payload == {"topologies": ["word-count"]}

    def test_logical_plan(self, app):
        status, payload = app.handle("GET", "/topology/word-count/logical")
        assert status == 200
        assert set(payload["bolts"]) == {"splitter", "counter"}

    def test_packing_plan(self, app):
        status, payload = app.handle("GET", "/topology/word-count/packing")
        assert status == 200
        assert payload["topology"] == "word-count"

    def test_unknown_view(self, app):
        status, payload = app.handle("GET", "/topology/word-count/nonsense")
        assert status == 404

    def test_unknown_topology(self, app):
        status, payload = app.handle("GET", "/topology/missing/logical")
        assert status == 404
        assert "error" in payload

    def test_unknown_route(self, app):
        status, _ = app.handle("GET", "/nope")
        assert status == 404


class TestTrafficEndpoint:
    def test_runs_configured_models(self, app):
        status, payload = app.handle(
            "GET",
            "/model/traffic/heron/word-count",
            {"horizon_minutes": "10"},
        )
        assert status == 200
        (result,) = payload["results"]
        assert result["model"].startswith("stats-summary")
        assert result["summary"]["mean"] > 0

    def test_wrong_method(self, app):
        status, _ = app.handle("POST", "/model/traffic/heron/word-count")
        assert status == 405

    def test_bad_horizon(self, app):
        status, payload = app.handle(
            "GET",
            "/model/traffic/heron/word-count",
            {"horizon_minutes": "abc"},
        )
        assert status == 400
        assert "integer" in payload["error"]


class TestPerformanceEndpoint:
    def test_explicit_source_rate(self, app):
        status, payload = app.handle(
            "POST",
            "/model/topology/heron/word-count",
            body={"source_rate": 10 * M},
        )
        assert status == 200
        assert len(payload["results"]) == 2  # both configured models ran

    def test_model_selection_narrows(self, app):
        status, payload = app.handle(
            "POST",
            "/model/topology/heron/word-count",
            {"model": "throughput-prediction"},
            {"source_rate": 10 * M},
        )
        assert status == 200
        (result,) = payload["results"]
        assert result["model"] == "throughput-prediction"

    def test_parallelism_proposal(self, app):
        status, payload = app.handle(
            "POST",
            "/model/topology/heron/word-count",
            {"model": "throughput-prediction"},
            {"source_rate": 30 * M, "parallelisms": {"splitter": 6}},
        )
        assert status == 200
        (result,) = payload["results"]
        assert result["parallelisms"]["splitter"] == 6

    def test_traffic_model_used_when_no_rate(self, app):
        status, payload = app.handle(
            "POST",
            "/model/topology/heron/word-count",
            {"model": "backpressure-evaluation", "horizon_minutes": "10"},
            {},
        )
        assert status == 200
        (result,) = payload["results"]
        assert result["source_rate"] > 0

    def test_bad_body_types(self, app):
        status, _ = app.handle(
            "POST",
            "/model/topology/heron/word-count",
            body={"source_rate": "fast"},
        )
        assert status == 400
        status, _ = app.handle(
            "POST",
            "/model/topology/heron/word-count",
            body={"source_rate": 1.0, "parallelisms": {"splitter": "two"}},
        )
        assert status == 400

    @pytest.mark.parametrize(
        "path, body, field",
        [
            (PERFORMANCE, {"source_rate": True}, "source_rate"),
            (
                PERFORMANCE,
                {"source_rate": 20 * M, "parallelisms": {"splitter": True}},
                "parallelisms",
            ),
            (SWEEP, {"source_rate": True, "plans": [{"splitter": 3}]}, "source_rate"),
            (SWEEP, {"source_rate": 20 * M, "plans": [{"splitter": True}]}, "plan"),
        ],
        ids=["predict-rate", "predict-parallelism", "sweep-rate", "sweep-plan"],
    )
    def test_a_boolean_is_not_a_number(self, app, path, body, field):
        status, payload = app.handle("POST", path, body=body)
        assert status == 400
        assert field in payload["error"]

    def test_wrong_method(self, app):
        status, _ = app.handle("GET", "/model/topology/heron/word-count")
        assert status == 405


class TestBreakerCountsOnlyEvaluatorFailures:
    """Default breaker: 5 calls minimum, opens at a 50 % failure rate."""

    #: ``(path, query, body)`` of requests only their sender can fix.
    CLIENT_MISTAKES = [
        (PERFORMANCE, {}, {"source_rate": 20 * M, "parallelisms": {"splitter": 0}}),
        (PERFORMANCE, {}, {"source_rate": 20 * M, "parallelisms": {"splitter": -3}}),
        (PERFORMANCE, {}, {"source_rate": 20 * M, "parallelisms": {"nope": 2}}),
        (PERFORMANCE, {}, {"source_rate": -1.0}),
        (PERFORMANCE, {"model": "nope"}, {"source_rate": 20 * M}),
        (PERFORMANCE, {}, {"traffic_model": "nope"}),
        (SWEEP, {}, {"source_rate": 20 * M, "plans": [{"nope": 2}]}),
    ]

    def test_client_400s_leave_the_circuit_closed(self, app):
        for i in range(5):
            status, _ = app.handle("POST", PERFORMANCE, body={"source_rate": 20 * M + i})
            assert status == 200
        for path, query, body in self.CLIENT_MISTAKES * 2:
            status, payload = app.handle("POST", path, query, body)
            assert status == 400, payload
        stats = breaker_view(app.telemetry.snapshot())
        assert (stats["state"], stats["opened_count"]) == ("closed", 0)
        status, _ = app.handle("POST", PERFORMANCE, body={"source_rate": 30 * M})
        assert status == 200

    def test_a_failing_evaluator_still_opens_it(self, app, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("evaluator down")

        for model in app.registry.performance.values():
            monkeypatch.setattr(model, "predict", broken)
        for i in range(5):
            with pytest.raises(RuntimeError, match="evaluator down"):
                app.handle("POST", PERFORMANCE, body={"source_rate": 20 * M + i})
        assert breaker_view(app.telemetry.snapshot())["state"] == "open"
        status, payload = app.handle("POST", PERFORMANCE, body={"source_rate": 30 * M})
        assert status == 503
        assert "circuit is open" in payload["error"]
        assert payload["retry_after"] >= 1


class TestAsyncJobs:
    def test_async_submit_and_poll(self, app):
        status, submitted = app.handle(
            "POST",
            "/model/topology/heron/word-count",
            {"async": "1", "model": "throughput-prediction"},
            {"source_rate": 10 * M},
        )
        assert status == 200
        assert submitted["status"] == "pending"
        result = _finished(app, submitted["request_id"])
        assert result["status"] == "done"
        assert result["result"]["results"][0]["output_rate"] > 0

    def test_poll_is_idempotent_within_ttl(self, app):
        """Retried/concurrent polls of a done job all get the result."""
        _, submitted = app.handle(
            "POST",
            "/model/topology/heron/word-count",
            {"async": "1", "model": "throughput-prediction"},
            {"source_rate": 10 * M},
        )
        request_id = submitted["request_id"]
        result = _finished(app, request_id)
        assert result["status"] == "done"
        for _ in range(3):
            status, again = app.handle("GET", f"/model/result/{request_id}")
            assert status == 200
            assert again == result

    def test_unknown_request_id(self, app):
        status, _ = app.handle("GET", "/model/result/does-not-exist")
        assert status == 404

    def test_async_error_is_reported(self, app):
        _, submitted = app.handle(
            "POST",
            "/model/topology/heron/missing-topology",
            {"async": "1"},
            {"source_rate": 1.0},
        )
        result = _finished(app, submitted["request_id"])
        assert result["status"] == "error"
        assert "missing-topology" in result["error"]


class TestDeadlinesRunOnTheAppClock:
    @pytest.fixture()
    def clocked(self, deployed_wordcount):
        _, _, _, store, tracker = deployed_wordcount
        config = load_config({"performance_models": ["throughput-prediction"]})
        clock = ManualClock()
        application = CaladriusApp(config, tracker, store, clock=clock)
        yield application, clock
        application.shutdown()

    def test_a_budget_is_spent_only_as_the_app_clock_moves(self, clocked):
        """A nanosecond is long gone on the OS clock by the time the
        deadline is checked; on an app clock that stands still it is not."""
        app, clock = clocked
        body = {"source_rate": 12 * M}
        status, _ = app.handle(
            "POST", PERFORMANCE, {}, body, {"X-Request-Deadline": "1e-9"}
        )
        assert status == 200

        def compute_slowly(*args):
            clock.advance(2.0)  # the evaluation takes two seconds
            return compute(*args)

        compute = app.breaker.call  # the evaluation, under the breaker
        app.breaker.call = compute_slowly
        status, payload = app.handle(
            "POST", PERFORMANCE, {}, {"source_rate": 13 * M},
            {"X-Request-Deadline": "1.5"},
        )
        assert status == 504 and payload["deadline"] == "exceeded"
        assert "500 ms past" in payload["error"]


class TestAsyncJobTtl:
    """Completed jobs are retained for a TTL, then evicted — not leaked."""

    @pytest.fixture()
    def ttl_app(self, deployed_wordcount):
        _, _, _, store, tracker = deployed_wordcount
        config = load_config(
            {
                "traffic_models": ["stats-summary"],
                "performance_models": ["throughput-prediction"],
                "serving": {"job_result_ttl_seconds": 30},
            }
        )
        clock = ManualClock()
        application = CaladriusApp(config, tracker, store, clock=clock)
        yield application, clock
        application.shutdown()

    def _finish_job(self, app):
        _, submitted = app.handle(
            "POST",
            "/model/topology/heron/word-count",
            {"async": "1", "model": "throughput-prediction"},
            {"source_rate": 10 * M},
        )
        request_id = submitted["request_id"]
        assert _finished(app, request_id)["status"] == "done"
        return request_id

    def test_done_result_expires_after_ttl(self, ttl_app):
        app, clock = ttl_app
        request_id = self._finish_job(app)
        clock.advance(29)
        status, _ = app.handle("GET", f"/model/result/{request_id}")
        assert status == 200
        clock.advance(2)
        status, _ = app.handle("GET", f"/model/result/{request_id}")
        assert status == 404

    def test_unpolled_jobs_are_evicted(self, ttl_app):
        """Jobs whose clients never poll do not stay in memory forever."""
        app, clock = ttl_app
        self._finish_job(app)  # poll only to learn it completed
        assert len(app._jobs) == 1
        clock.advance(31)
        # Any later submission sweeps the expired job out.
        app.handle(
            "POST",
            "/model/topology/heron/word-count",
            {"async": "1", "model": "throughput-prediction"},
            {"source_rate": 11 * M},
        )
        assert len(app._jobs) == 1  # only the new job remains
