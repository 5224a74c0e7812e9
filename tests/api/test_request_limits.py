"""Requests one sender can hurt everyone with are refused, not served.

A plan proposing tens of millions of instances allocated as many floats
per rescale; ``NaN`` / ``Infinity`` (which Python's ``json.loads``, and so
the listener, accept) were modelled and cached; a silent output stream
poisoned the calibration and crashed the chain with a division by zero,
booked on the circuit breaker; and an empty plan was fingerprinted,
computed, stored and re-warmed apart from no plan at all.
"""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest

from repro.api.app import CaladriusApp
from repro.api.server import CaladriusServer
from repro.config import load_config
from repro.core.calibration import fit_piecewise_linear
from repro.core.performance_models import calibrate_topology
from repro.durability.breaker import breaker_view
from repro.heron.groupings import ShuffleGrouping
from repro.heron.packing import RoundRobinPacking
from repro.heron.simulation import (
    ComponentLogic,
    HeronSimulation,
    SimulationConfig,
    SpoutLogic,
)
from repro.heron.topology import TopologyBuilder
from repro.heron.tracker import TopologyTracker
from repro.timeseries.store import MetricsStore
from tests.readings import reading

M = 1e6
PREDICT = "/model/topology/heron/word-count"
SWEEP = "/model/plan_sweep/heron/word-count"
CEILING = CaladriusApp._MAX_PARALLELISM


@pytest.fixture()
def app(deployed_wordcount, default_config):
    _, _, _, store, tracker = deployed_wordcount
    app = CaladriusApp(default_config, tracker, store)
    yield app
    app.shutdown()


# ----------------------------------------------------------------------
# A parallelism ceiling, before anything is built
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path, body", [
    (PREDICT, {"source_rate": 1e5, "parallelisms": {"splitter": 30_000_000}}),
    (PREDICT, {"source_rate": 1e5, "parallelisms": {"counter": CEILING + 1}}),
    (SWEEP, {"source_rate": 1e5,
             "plans": [{"splitter": 2}, {"splitter": 10**9}]}),
], ids=["predict-30M", "predict-just-above", "sweep"])
def test_a_plan_above_the_ceiling_is_a_400(app, path, body):
    status, payload = app.handle("POST", path, body=body)
    assert status == 400
    assert str(CEILING) in payload["error"] and "above" in payload["error"]
    assert app.serving.stats()["requests"] == 0  # refused before the descriptor
    assert reading(app, "calibration.misses") == 0
    assert breaker_view(app.telemetry.snapshot())["failure_rate"] == 0.0


def test_the_ceiling_itself_is_served(app):
    status, payload = app.handle(
        "POST", PREDICT,
        body={"source_rate": 20 * M, "parallelisms": {"splitter": CEILING}},
    )
    assert status == 200
    assert payload["results"][0]["parallelisms"]["splitter"] == CEILING


# ----------------------------------------------------------------------
# Non-finite rates
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "literal", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
    ids=["nan", "inf", "minus-inf", "1e400-as-an-int"],
)
def test_a_non_finite_source_rate_is_a_400(app, literal):
    for path, rest in ((PREDICT, ""), (SWEEP, ', "plans": [{"splitter": 3}]')):
        body = json.loads('{"source_rate": %s%s}' % (literal, rest))
        status, payload = app.handle("POST", path, body=body)
        assert status == 400, payload
        assert "source_rate" in payload["error"]
    assert app.serving.stats()["cache"]["entries"] == 0


def test_nan_over_the_socket_is_a_400_and_nothing_is_cached(app):
    body = b'{"source_rate": NaN}'
    with CaladriusServer(app, port=0) as server:
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(
                b"POST %s HTTP/1.1\r\nConnection: close\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (PREDICT.encode(), len(body), body)
            )
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
    assert raw.startswith(b"HTTP/1.1 400 ")
    assert b"source_rate must be finite" in raw
    assert app.serving.stats()["cache"]["entries"] == 0


# ----------------------------------------------------------------------
# An empty plan is no plan
# ----------------------------------------------------------------------
def test_empty_null_and_absent_plans_are_one_computation_one_entry(app):
    answers = [
        app.handle("POST", PREDICT, body=body)
        for body in (
            {"source_rate": 20 * M},
            {"source_rate": 20 * M, "parallelisms": {}},
            {"source_rate": 20 * M, "parallelisms": None},
        )
    ]
    assert answers[0][0] == 200
    assert answers[0] == answers[1] == answers[2]
    stats = app.serving.stats()
    assert (stats["requests"], stats["hits"], stats["computations"]) == (3, 2, 1)
    assert stats["cache"]["entries"] == 1
    assert stats["precompute"]["tracked"] == 1  # and one query to re-warm


# ----------------------------------------------------------------------
# A silent output stream
# ----------------------------------------------------------------------
def test_an_all_zero_stream_fits_no_breakpoint_worth_trusting():
    x = np.linspace(1e5, 9e5, 9)
    fit = fit_piecewise_linear(x, np.zeros_like(x))
    assert fit.alpha == 0.0  # ... whatever ``saturation_point`` it reports


@pytest.fixture(scope="module")
def silent_stream_service():
    """``spout -> router {hot -> agg, cold -> archive}``, ``spout ->
    archive``; ten minutes in which ``cold`` emitted nothing while the
    router ran linear at 0.9x over the whole window."""
    builder = TopologyBuilder("silent-cold")
    builder.add_spout("spout", 2)
    builder.add_bolt("router", 2)
    builder.add_bolt("agg", 2)
    builder.add_bolt("archive", 2)
    builder.connect("spout", "router", ShuffleGrouping())
    builder.connect("router", "agg", ShuffleGrouping(), "hot")
    builder.connect("router", "archive", ShuffleGrouping(), "cold")
    builder.connect("spout", "archive", ShuffleGrouping())
    topology = builder.build()
    packing = RoundRobinPacking().pack(topology, 4)
    logic = {
        "spout": SpoutLogic(),
        "router": ComponentLogic(
            capacity_tps=1e6, alphas={"hot": 0.9, "cold": 0.0},
            capacity_noise=0.0, alpha_noise=0.0,
        ),
        "agg": ComponentLogic(capacity_tps=1e6, alphas={}),
        "archive": ComponentLogic(capacity_tps=1e6, alphas={}),
    }
    store, tracker = MetricsStore(), TopologyTracker()
    tracker.register(topology, packing)
    simulation = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=5)
    )
    for minute in range(10):
        simulation.set_source_rate("spout", 1e5 * (1 + minute))
        simulation.run(1)
    app = CaladriusApp(load_config({}), tracker, store)
    yield app, tracker, store
    app.shutdown()


def test_a_silent_stream_does_not_calibrate_a_saturation_point(silent_stream_service):
    _, tracker, store = silent_stream_service
    model, fits = calibrate_topology(tracker.get("silent-cold"), store)
    router = model.component("router")
    assert router.instance.alpha("cold") == 0.0
    assert router.instance.alpha("hot") == pytest.approx(0.9, rel=0.02)
    # Linear over the whole window: no breakpoint, least of all the
    # lowest rate it was ever offered.
    assert router.saturation_point() == float("inf")
    assert fits["router"].saturation_point == float("inf")


def test_a_silent_stream_is_answered_not_crashed(silent_stream_service):
    app, _, _ = silent_stream_service
    status, payload = app.handle(
        "POST", "/model/topology/heron/silent-cold", body={"source_rate": 6e5}
    )
    assert status == 200, payload
    throughput, backpressure = payload["results"]
    by_path = {tuple(p["path"]): p for p in throughput["paths"]}
    assert set(by_path) == {
        ("spout", "router", "agg"), ("spout", "router", "archive"),
        ("spout", "archive"),
    }
    # Nothing flows down ``cold``, and nothing behind it is a bottleneck.
    assert by_path["spout", "router", "archive"]["output_rate"] == 0.0
    assert by_path["spout", "router", "archive"]["bottleneck"] is None
    assert by_path["spout", "router", "agg"]["output_rate"] == pytest.approx(
        0.9 * 6e5, rel=0.02
    )
    assert throughput["output_rate"] == pytest.approx(1.9 * 6e5, rel=0.02)
    assert backpressure["backpressure_risk"] == "low"
    assert breaker_view(app.telemetry.snapshot())["failure_rate"] == 0.0
