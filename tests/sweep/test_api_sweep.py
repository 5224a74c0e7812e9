"""The POST /model/plan_sweep endpoint, served through the serving layer."""

from __future__ import annotations

import pytest

from repro.api.app import CaladriusApp
from repro.config import load_config

from tests.clock import ManualClock
from tests.sweep.conftest import M, plan_grid

RATE = 30 * M
PATH = "/model/plan_sweep/heron/word-count"


@pytest.fixture()
def app(deployed_wordcount):
    _, _, _, store, tracker = deployed_wordcount
    application = CaladriusApp(load_config({}), tracker, store)
    yield application
    application.shutdown()


def sweep_body(plans=None, rate=RATE):
    return {"source_rate": rate, "plans": plans or plan_grid(4, 4)}


class TestPlanSweepEndpoint:
    def test_ranks_plans(self, app):
        status, payload = app.handle("POST", PATH, body=sweep_body())
        assert status == 200
        assert payload["model"] == "plan-sweep"
        assert payload["plan_count"] == 16
        ranks = [e["rank"] for e in payload["ranked"]]
        assert ranks == list(range(1, 17))

    def test_top_k(self, app):
        status, payload = app.handle(
            "POST", PATH, query={"top_k": "2"}, body=sweep_body()
        )
        assert status == 200
        assert len(payload["ranked"]) == 2

    def test_served_through_result_cache(self, app):
        """The second identical sweep is a serving-layer cache hit."""
        body = sweep_body()
        status, first = app.handle("POST", PATH, body=body)
        assert status == 200
        _, before = app.handle("GET", "/serving/stats")
        status, second = app.handle("POST", PATH, body=body)
        assert status == 200
        _, after = app.handle("GET", "/serving/stats")
        assert first == second
        assert after["hits"] == before["hits"] + 1

    def test_different_plans_miss_the_cache(self, app):
        app.handle("POST", PATH, body=sweep_body())
        _, before = app.handle("GET", "/serving/stats")
        status, _ = app.handle(
            "POST", PATH, body=sweep_body(plans=[{"splitter": 7}])
        )
        assert status == 200
        _, after = app.handle("GET", "/serving/stats")
        assert after["hits"] == before["hits"]

    def test_expired_deadline_is_504(self, deployed_wordcount):
        _, _, _, store, tracker = deployed_wordcount
        # A microsecond passes per read: the budget is gone by the check.
        clock = ManualClock(step=1e-6)
        app = CaladriusApp(load_config({}), tracker, store, clock=clock)
        status, payload = app.handle(
            "POST", PATH, body=sweep_body(),
            headers={"X-Request-Deadline": "0.000000001"},
        )
        app.shutdown()
        assert status == 504
        assert payload["deadline"] == "exceeded"

    def test_get_is_405(self, app):
        status, _ = app.handle("GET", PATH)
        assert status == 405

    def test_unknown_topology_404(self, app):
        status, _ = app.handle(
            "POST", "/model/plan_sweep/heron/missing", body=sweep_body()
        )
        assert status == 404

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"source_rate": RATE},
            {"source_rate": "lots", "plans": [{}]},
            {"source_rate": True, "plans": [{}]},
            {"source_rate": RATE, "plans": []},
            {"source_rate": RATE, "plans": "all"},
            {"source_rate": RATE, "plans": [["splitter", 2]]},
            {"source_rate": RATE, "plans": [{"splitter": "two"}]},
            {"source_rate": RATE, "plans": [{"splitter": True}]},
        ],
    )
    def test_malformed_bodies_are_400(self, app, body):
        status, payload = app.handle("POST", PATH, body=body)
        assert status == 400
        assert "error" in payload

    def test_plan_limit_enforced(self, app):
        plans = [{"splitter": 1 + (i % 8)} for i in range(1025)]
        status, payload = app.handle(
            "POST", PATH, body={"source_rate": RATE, "plans": plans}
        )
        assert status == 400
        assert "1024" in payload["error"]

    def test_unknown_component_is_400(self, app):
        status, _ = app.handle(
            "POST", PATH, body=sweep_body(plans=[{"nope": 2}])
        )
        assert status == 400

    def test_client_helper_round_trip(self, deployed_wordcount):
        from repro.api.client import CaladriusClient
        from repro.api.server import CaladriusServer

        _, _, _, store, tracker = deployed_wordcount
        application = CaladriusApp(load_config({}), tracker, store)
        with CaladriusServer(application, port=0) as server:
            client = CaladriusClient(server.host, server.port, retries=0)
            client.wait_ready(timeout=10)
            payload = client.plan_sweep(
                "word-count", RATE,
                [{"splitter": 4, "counter": 4}, {"splitter": 2}],
                top_k=1,
            )
            assert payload["plan_count"] == 2
            assert len(payload["ranked"]) == 1
        application.shutdown()
