"""Graceful-shutdown races: concurrent drains, SIGTERM mid-request,
SIGTERM while a shard is still replaying its WAL.

The in-process tests drive :meth:`CaladriusServer.shutdown_gracefully`
directly; the subprocess test reproduces the cluster drain story — a
worker hard-killed mid-storm, restarted (WAL replay), and SIGTERMed
immediately — and asserts a clean exit with every acknowledged write
still present.
"""

from __future__ import annotations

import signal
import threading
import time

import pytest

from repro.api.app import CaladriusApp
from repro.api.client import CaladriusClient
from repro.api.server import CaladriusServer
from repro.config import load_config
from repro.durability import open_data_dir
from repro.errors import ApiError
from tests.clock import JOIN, Call
from tests.live import poll_until, spawn_serve


def _build_service(deployed_wordcount):
    _, _, _, store, tracker = deployed_wordcount
    config = load_config(
        {
            "traffic_models": ["stats-summary"],
            "performance_models": ["throughput-prediction"],
        }
    )
    app = CaladriusApp(config, tracker, store)
    server = CaladriusServer(app, port=0)
    server.start()
    return app, server


class TestConcurrentShutdown:
    def test_concurrent_graceful_shutdowns_collapse_to_one(
        self, deployed_wordcount
    ):
        app, server = _build_service(deployed_wordcount)
        try:
            drains = [
                Call(server.shutdown_gracefully, drain_timeout=5.0)
                for _ in range(8)
            ]
            assert [drain.result() for drain in drains] == [True] * 8
            assert server._shutdown_done.is_set()
        finally:
            app.shutdown()

    def test_shutdown_after_stop_is_a_noop(self, deployed_wordcount):
        app, server = _build_service(deployed_wordcount)
        try:
            assert server.shutdown_gracefully(drain_timeout=1.0) is True
            # A second call (late signal, atexit, …) must not raise.
            assert server.shutdown_gracefully(drain_timeout=1.0) is True
        finally:
            app.shutdown()


class TestSigtermMidRequest:
    def test_sigterm_during_inflight_plan_sweep(self, deployed_wordcount):
        """The drain waits for an in-flight plan sweep to finish."""
        app, server = _build_service(deployed_wordcount)
        saved_term = signal.getsignal(signal.SIGTERM)
        saved_int = signal.getsignal(signal.SIGINT)
        client = CaladriusClient(server.host, server.port, retries=0)
        # The sweep's computation is held open until the SIGTERM is in,
        # so the drain cannot miss it however fast the sweep would be.
        entered, gate = threading.Event(), threading.Event()
        sweep_plans = app.sweep_engine.sweep

        def held(*args, **kwargs):
            entered.set()
            assert gate.wait(JOIN)
            return sweep_plans(*args, **kwargs)

        app.sweep_engine.sweep = held
        try:
            done = server.install_signal_handlers(drain_timeout=30.0)
            plans = [
                {"splitter": 1, "counter": 2},
                {"splitter": 2, "counter": 4},
                {"splitter": 4, "counter": 4},
            ]
            sweep = Call(client.plan_sweep, "word-count", 10e6, plans)
            assert entered.wait(JOIN), "sweep never went in flight"
            assert app.lifecycle.inflight()
            signal.raise_signal(signal.SIGTERM)
            assert poll_until(app.lifecycle.is_draining, JOIN)
            assert not done.is_set()  # the held sweep keeps the drain open
            gate.set()
            assert done.wait(timeout=60), "shutdown never completed"
            # The in-flight request completed despite the SIGTERM.
            assert sweep.result()["ranked"]
        finally:
            signal.signal(signal.SIGTERM, saved_term)
            signal.signal(signal.SIGINT, saved_int)
            client.close()
            app.shutdown()

    def test_draining_service_refuses_new_work(self, deployed_wordcount):
        app, server = _build_service(deployed_wordcount)
        client = CaladriusClient(server.host, server.port, retries=0)
        try:
            assert app.lifecycle.begin_drain()
            with pytest.raises(ApiError) as excinfo:
                client.performance("word-count", source_rate=10e6)
            assert excinfo.value.status == 503
            with pytest.raises(ApiError) as probe:
                client.readyz()
            assert probe.value.status == 503
        finally:
            client.close()
            server.stop()
            app.shutdown()


class TestDrainDuringReplay:
    def test_sigterm_during_wal_replay_loses_nothing(self, tmp_path):
        """kill -9, restart (replay), immediate SIGTERM: clean + complete."""
        data_dir = tmp_path / "data"
        process, port = spawn_serve(data_dir)
        client = CaladriusClient("127.0.0.1", port, retries=0)
        acked: list[int] = []
        try:
            client.wait_ready(timeout=30)
            for batch in range(1, 120):
                base = batch * 1000
                client.write_metrics(
                    "replaytest",
                    [(base + i, float(base + i)) for i in range(10)],
                    {"topology": "drainy", "batch": str(batch)},
                )
                acked.append(batch)
        finally:
            client.close()
        process.kill()  # SIGKILL: no checkpoint, full WAL replay on boot
        process.wait(timeout=30)

        # Restart (recovery replays ~1200 WAL records before the
        # announce line) and SIGTERM the instant the port appears —
        # racing the drain against the freshly-replayed state's final
        # checkpoint.
        process2, _ = spawn_serve(data_dir)
        process2.send_signal(signal.SIGTERM)
        stdout, stderr = process2.communicate(timeout=90)
        assert process2.returncode == 0, (
            f"unclean exit {process2.returncode}\n{stderr}"
        )

        # Every acknowledged batch survived both the kill and the
        # drain-during-replay restart.
        store, _ = open_data_dir(data_dir)
        try:
            names = {
                key.tag_dict().get("batch")
                for key in store.keys("replaytest")
            }
            for batch in acked:
                assert str(batch) in names, f"acked batch {batch} lost"
        finally:
            store.close()
