"""Concurrent API use: single-flight, byte-identical answers, live writes.

Hammers a real :class:`CaladriusServer` from a thread pool with mixed
identical/distinct requests and asserts the serving-layer contract:

* each distinct computation executes exactly once no matter how many
  concurrent clients ask for it (single-flight + cache);
* served responses are byte-identical to what an uncached service
  computes for the same inputs;
* metrics writes racing with reads never corrupt aggregation — every
  response remains byte-identical to the clean baseline while the cache
  is being invalidated underneath;
* overload sheds with 429 + ``Retry-After`` instead of queueing forever.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api.app import CaladriusApp
from repro.api.client import CaladriusClient
from repro.api.server import CaladriusServer
from repro.config import load_config
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.tracker import TopologyTracker
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.store import MetricsStore
from tests.live import poll_until
from tests.readings import reading

M = 1e6

_MODEL_CONFIG = {
    "traffic_models": ["stats-summary"],
    "performance_models": ["throughput-prediction"],
}


@pytest.fixture(scope="module")
def private_deployment():
    """A deployment not shared with other tests, safe to write into."""
    topology, packing, logic = build_word_count(
        WordCountParams(
            spout_parallelism=4,
            splitter_parallelism=2,
            counter_parallelism=4,
        )
    )
    store = MetricsStore()
    sim = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=11)
    )
    for rate in np.arange(4 * M, 44 * M + 1, 8 * M):
        sim.set_source_rate("sentence-spout", float(rate))
        sim.run(2)
    tracker = TopologyTracker()
    tracker.register(topology, packing)
    return tracker, store


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


class TestSingleFlightOverHttp:
    def test_distinct_computations_run_once_and_match_uncached(
        self, private_deployment
    ):
        tracker, store = private_deployment
        config = load_config(_MODEL_CONFIG)
        app = CaladriusApp(config, tracker, store)
        uncached = CaladriusApp(
            load_config({**_MODEL_CONFIG, "serving": {"enabled": False}}),
            tracker,
            store,
        )
        try:
            rates = [8 * M, 12 * M, 16 * M, 20 * M]
            expected = {}
            for rate in rates:
                status, payload = uncached.handle(
                    "POST",
                    "/model/topology/heron/word-count",
                    {},
                    {"source_rate": rate},
                )
                assert status == 200
                expected[rate] = canonical(payload)

            barrier = threading.Barrier(16, timeout=30)

            def hammer(rate):
                client = CaladriusClient(
                    "127.0.0.1", server.port, timeout=60, retries=0
                )
                barrier.wait()
                return rate, client.performance(
                    "word-count", source_rate=rate
                )

            with CaladriusServer(app) as server:
                with ThreadPoolExecutor(max_workers=16) as pool:
                    # 16 concurrent requests over 4 distinct rates.
                    futures = [
                        pool.submit(hammer, rates[i % len(rates)])
                        for i in range(16)
                    ]
                    responses = [f.result(120) for f in futures]
                status, stats = app.handle("GET", "/serving/stats")
            assert status == 200
            # Every response is byte-identical to the uncached baseline.
            for rate, payload in responses:
                assert canonical(payload) == expected[rate]
            # Each distinct request computed exactly once; the other 12
            # were answered by coalescing or the cache.
            assert stats["computations"] == len(rates)
            assert stats["requests"] == 16
            assert stats["hits"] + stats["coalesced"] == 16 - len(rates)
        finally:
            app.shutdown()
            uncached.shutdown()

    def test_writes_during_reads_never_corrupt_aggregation(
        self, private_deployment
    ):
        tracker, store = private_deployment
        config = load_config(_MODEL_CONFIG)
        app = CaladriusApp(config, tracker, store)
        uncached = CaladriusApp(
            load_config({**_MODEL_CONFIG, "serving": {"enabled": False}}),
            tracker,
            store,
        )
        try:
            status, baseline = uncached.handle(
                "GET",
                "/model/traffic/heron/word-count",
                {"horizon_minutes": "10"},
            )
            assert status == 200
            expected = canonical(baseline)

            stop = threading.Event()
            written = []

            def writer():
                # A metric the models do not read, tagged to the served
                # topology: every write invalidates the cache without
                # changing the correct answer.
                ts = 0
                while not stop.is_set():
                    ts += 60
                    store.write(
                        "serving-test-noise", ts, 1.0,
                        {"topology": "word-count"},
                    )
                    written.append(ts)
                    time.sleep(0.002)  # deliberate interleaving with readers

            def reader():
                client = CaladriusClient(
                    "127.0.0.1", server.port, timeout=60, retries=0
                )
                payloads = []
                for _ in range(5):
                    payloads.append(
                        client.traffic("word-count", horizon_minutes=10)
                    )
                return payloads

            with CaladriusServer(app) as server:
                writer_thread = threading.Thread(target=writer)
                writer_thread.start()
                try:
                    with ThreadPoolExecutor(max_workers=8) as pool:
                        futures = [pool.submit(reader) for _ in range(8)]
                        results = [f.result(120) for f in futures]
                finally:
                    stop.set()
                    writer_thread.join(10)
            # Aggregation stayed correct under racing invalidations.
            for payloads in results:
                for payload in payloads:
                    assert canonical(payload) == expected
            # And the writes themselves all landed, in order.
            noise = store.get(
                "serving-test-noise", {"topology": "word-count"}
            )
            assert list(noise.timestamps) == written
        finally:
            app.shutdown()
            uncached.shutdown()


class _BlockingModel:
    """A performance model that holds its scheduler slot until released."""

    def __init__(self) -> None:
        self.release = threading.Event()

    def predict(self, topology, **_kwargs):
        self.release.wait(60)
        return SimpleNamespace(as_dict=lambda: {"model": "blocking"})


def _overload(app, extra):
    """Fill every scheduler slot and queue place, then ``extra`` more.

    Distinct source rates defeat coalescing, and the blocking model pins
    the admitted requests in place, so exactly ``extra`` arrivals find
    the queue full — no timing assumption.  Returns the per-request
    ``(status, Retry-After header, payload)`` outcomes and what
    ``/healthz`` answered while the service was saturated.
    """
    model = _BlockingModel()
    app.registry.performance["throughput-prediction"] = model
    scheduler = app.serving.scheduler
    capacity = scheduler.max_concurrent + scheduler.max_queue

    def hammer(rate):
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        try:
            connection.request(
                "POST",
                "/model/topology/heron/word-count",
                body=json.dumps({"source_rate": rate}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read().decode())
            return response.status, response.getheader("Retry-After"), payload
        finally:
            connection.close()

    with CaladriusServer(app) as server:
        with ThreadPoolExecutor(max_workers=capacity + extra) as pool:
            futures = [
                pool.submit(hammer, (30 + i) * M)
                for i in range(capacity + extra)
            ]
            try:
                poll_until(
                    lambda: reading(scheduler, "serving.scheduler.shed") >= extra, 30
                )
                with CaladriusClient(
                    "127.0.0.1", server.port, timeout=10, retries=0
                ) as client:
                    health = client.healthz()
            finally:
                model.release.set()
            outcomes = [f.result(120) for f in futures]
    return outcomes, health


class TestLoadSheddingOverHttp:
    def test_429_with_retry_after_header(self, private_deployment):
        tracker, store = private_deployment
        config = load_config(
            {
                **_MODEL_CONFIG,
                "serving": {"max_concurrent": 1, "max_queue": 1},
            }
        )
        app = CaladriusApp(config, tracker, store)
        try:
            # 8 concurrent *distinct* requests against 1 slot + 1 queue
            # place: all but two must shed.
            outcomes, _ = _overload(app, extra=6)
            shed = [o for o in outcomes if o[0] == 429]
            served = [o for o in outcomes if o[0] == 200]
            assert len(served) == 2
            assert len(shed) == 6
            for status, retry_after, payload in shed:
                assert retry_after is not None
                assert int(retry_after) >= 1
                assert payload["retry_after"] >= 1
                assert "error" in payload
            status, stats = app.handle("GET", "/serving/stats")
            assert stats["shed"] == len(shed)
        finally:
            app.shutdown()

    def test_default_config_sheds_at_the_scheduler_not_the_listener(
        self, private_deployment
    ):
        """The listener's pool never stands in front of the scheduler.

        With the default ``max_concurrent 4 + max_queue 32``, every
        admitted or queued request must own a worker thread; otherwise
        overload parks in the executor backlog, nothing is ever shed,
        and ``/healthz`` waits behind blocked modelling requests.
        """
        tracker, store = private_deployment
        config = load_config(_MODEL_CONFIG)
        capacity = config.serving.max_concurrent + config.serving.max_queue
        app = CaladriusApp(config, tracker, store)
        try:
            outcomes, health = _overload(app, extra=5)
            statuses = [status for status, _, _ in outcomes]
            assert statuses.count(200) == capacity
            assert statuses.count(429) == 5
            assert all(
                int(retry_after) >= 1
                for status, retry_after, _ in outcomes
                if status == 429
            )
            # Answered while every slot and queue place was held.
            assert health["status"] in ("ok", "degraded")
            assert app.lifecycle.inflight() == 0
        finally:
            app.shutdown()


class TestServingStatsEndpoint:
    def test_disabled_layer_reports_disabled(self, private_deployment):
        tracker, store = private_deployment
        app = CaladriusApp(
            load_config({**_MODEL_CONFIG, "serving": {"enabled": False}}),
            tracker,
            store,
        )
        try:
            status, payload = app.handle("GET", "/serving/stats")
            assert status == 200
            assert payload["enabled"] is False
            # the circuit breaker reports here even without a serving layer
            assert payload["breaker"]["state"] == "closed"
        finally:
            app.shutdown()

    def test_client_helper_fetches_stats(self, private_deployment):
        tracker, store = private_deployment
        app = CaladriusApp(load_config(_MODEL_CONFIG), tracker, store)
        try:
            with CaladriusServer(app) as server:
                client = CaladriusClient("127.0.0.1", server.port)
                stats = client.serving_stats()
            assert stats["enabled"] is True
            assert "hit_rate" in stats
            assert "queue_depth" in stats
        finally:
            app.shutdown()

    def test_priority_param_validated(self, private_deployment):
        tracker, store = private_deployment
        app = CaladriusApp(load_config(_MODEL_CONFIG), tracker, store)
        try:
            status, payload = app.handle(
                "GET",
                "/model/traffic/heron/word-count",
                {"priority": "urgent"},
            )
            assert status == 400
            assert "priority" in payload["error"]
        finally:
            app.shutdown()
