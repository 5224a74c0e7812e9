"""ShardManager failover behaviour, driven with stub worker processes.

Real shard workers take seconds to boot (WAL replay, model warmup);
these tests substitute a tiny HTTP stub that announces a port, answers
every GET with a canned JSON body, and optionally exits after a fixed
lifetime — enough to drive the supervisor through crash loops, give-up,
promotion, and the stop/monitor shutdown race in a few seconds.
"""

from __future__ import annotations

import sys
import time

import pytest

from repro.cluster.shard import (
    GAVE_UP,
    READY,
    STOPPED,
    ShardManager,
)
from tests.live import poll_until

_STUB = '''
import http.server, json, os, sys, threading, time

lifetime = float(sys.argv[1])
body = json.loads(sys.argv[2]) if len(sys.argv) > 2 else {"ready": True}
raw = json.dumps(body).encode("utf8")


class Handler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
threading.Thread(target=server.serve_forever, daemon=True).start()
print(f"stub serving on 127.0.0.1:{server.server_address[1]}", flush=True)
if lifetime > 0:
    time.sleep(lifetime)  # a real subprocess: the stub lives this long
    os._exit(1)
threading.Event().wait()
'''


@pytest.fixture()
def stub_script(tmp_path):
    path = tmp_path / "stub_worker.py"
    path.write_text(_STUB, encoding="utf8")
    return path


def _manager(stub_script, lifetime, **kwargs):
    def worker_argv(shard_id, ship_to, epoch):
        return [sys.executable, str(stub_script), str(lifetime)]

    defaults = dict(
        restart_backoff_seconds=0.01,
        poll_interval_seconds=0.02,
        ready_timeout=10.0,
        announce_timeout=20.0,
        unresponsive_timeout_seconds=0,  # stubs answer; skip the probe
    )
    defaults.update(kwargs)
    return ShardManager(worker_argv, None, **defaults)


class TestCrashLoopGiveUp:
    def test_rapid_deaths_end_in_gave_up(self, stub_script):
        """5 rapid deaths and no follower: the shard is marked gave_up."""
        manager = _manager(stub_script, lifetime=0.3)
        try:
            manager.start(1)
            assert manager.state_of(0) == READY
            epoch_after_boot = manager.epoch_of(0)
            assert epoch_after_boot == 1
            assert poll_until(
                lambda: manager.state_of(0) == GAVE_UP, timeout=60
            ), f"never gave up (state={manager.state_of(0)})"
            (status,) = manager.statuses()
            assert status["state"] == GAVE_UP
            assert status["rapid_deaths"] > 5
            assert "crash loop" in status["last_error"]
            # Every respawn burned a fresh epoch: no generation reuse.
            assert manager.epoch_of(0) > epoch_after_boot
            # A gave-up shard publishes no address (the router 503s).
            assert manager.address_of(0) is None
            assert manager.all_ready() is False
        finally:
            manager.stop_all(timeout=10)

    def test_gave_up_surfaces_through_the_router(self, stub_script):
        """Router healthz shows gave_up; owned topologies answer 503."""
        from repro.cluster.router import RouterApp
        from repro.config import load_config

        manager = _manager(stub_script, lifetime=0.3)
        try:
            manager.start(1)
            assert poll_until(
                lambda: manager.state_of(0) == GAVE_UP, timeout=60
            )
            router = RouterApp(load_config({}), manager)
            status, payload = router.handle("GET", "/healthz")
            assert status == 200
            assert payload["status"] == "degraded"
            assert payload["shards"][0]["state"] == GAVE_UP
            status, payload = router.handle(
                "POST",
                "/metrics/write",
                body={
                    "name": "arrivals",
                    "samples": [[60, 1.0]],
                    "tags": {"topology": "anything"},
                },
            )
            assert status == 503
            assert payload["shard_state"] == GAVE_UP
            assert payload["retry_after"] >= 1
            router._fanout.shutdown(wait=False)
        finally:
            manager.stop_all(timeout=10)


class TestPromotion:
    def _promotable_manager(self, tmp_path, stub_script, worker_lifetime,
                            follower_body='{"applied_lsn": 0}'):
        def worker_argv(shard_id, ship_to, epoch):
            return [
                sys.executable, str(stub_script), str(worker_lifetime)
            ]

        def follower_argv(shard_id):
            return [
                sys.executable, str(stub_script), "0", follower_body
            ]

        def shard_dirs(shard_id):
            return (
                tmp_path / f"shard-{shard_id}",
                tmp_path / f"replica-{shard_id}",
            )

        for shard_id in (0,):
            (tmp_path / f"shard-{shard_id}").mkdir(exist_ok=True)
            (tmp_path / f"replica-{shard_id}").mkdir(exist_ok=True)
        return ShardManager(
            worker_argv,
            follower_argv,
            restart_backoff_seconds=0.01,
            poll_interval_seconds=0.02,
            ready_timeout=10.0,
            announce_timeout=20.0,
            shard_dirs=shard_dirs,
            epoch_path=tmp_path / "epochs.json",
            unresponsive_timeout_seconds=0,
        )

    def test_crash_loop_promotes_the_follower_once(
        self, tmp_path, stub_script
    ):
        """Give-up with a live follower promotes instead; a second
        crash loop (the promoted dir is just as broken for a stub) then
        genuinely gives up — the promotion budget is one."""
        manager = self._promotable_manager(
            tmp_path, stub_script, worker_lifetime=0.3
        )
        (tmp_path / "replica-0" / "mirror-marker").write_text(
            "from the follower", encoding="utf8"
        )
        try:
            manager.start(1)
            assert poll_until(
                lambda: manager.state_of(0) == GAVE_UP, timeout=120
            ), f"never settled (state={manager.state_of(0)})"
            (status,) = manager.statuses()
            assert status["promotions"] == 1
            # The follower's byte mirror became the primary directory…
            assert (tmp_path / "shard-0" / "mirror-marker").exists()
            # …the superseded dir was preserved, named by its epoch…
            fenced = list(tmp_path.glob("shard-0-fenced-e*"))
            assert len(fenced) == 1
            # …and a fresh, empty replica dir was created for the next
            # follower generation.
            assert (tmp_path / "replica-0").is_dir()
            assert status["epoch"] == manager.epoch_of(0)
        finally:
            manager.stop_all(timeout=10)

    def test_lagging_data_dir_triggers_validation_promotion(
        self, tmp_path, stub_script
    ):
        """A worker dir that would recover less than the follower holds
        is never respawned onto lost state: the mirror is promoted on
        the first death, no crash loop required."""
        # An empty worker dir peeks as lsn 0; the follower claims 7.
        manager = self._promotable_manager(
            tmp_path,
            stub_script,
            worker_lifetime=2.5,  # outlives _MIN_HEALTHY_UPTIME: no loop
            follower_body='{"applied_lsn": 7}',
        )
        (tmp_path / "replica-0" / "mirror-marker").write_text(
            "x", encoding="utf8"
        )
        try:
            manager.start(1)
            handle = manager.handle(0)
            assert poll_until(
                lambda: handle.promotions >= 1, timeout=60
            ), "validation promotion never happened"
            assert handle.rapid_deaths == 0  # not the crash-loop path
            assert (tmp_path / "shard-0" / "mirror-marker").exists()
        finally:
            manager.stop_all(timeout=10)


class TestStopRaces:
    def test_stop_all_during_restart_churn_spawns_nothing(
        self, stub_script
    ):
        """stop_all while workers are dying must not race the monitor
        into respawning into a torn-down cluster."""
        manager = _manager(stub_script, lifetime=0.3)
        manager.start(2)
        # Let at least one death/respawn cycle start.
        assert poll_until(
            lambda: any(
                s.get("restarts", 0) > 0 for s in manager.statuses()
            ),
            timeout=30,
        )
        manager.stop_all(timeout=10)
        assert manager._monitor is None
        states = {s["state"] for s in manager.statuses()}
        assert states == {STOPPED}
        # Every tracked process is dead, and stays dead (no respawn
        # raced past the stop).
        time.sleep(0.5)  # real subprocesses: give a raced respawn time to show
        for handle in manager._handles.values():
            if handle.worker is not None:
                assert handle.worker.process.poll() is not None

    def test_stop_all_is_idempotent(self, stub_script):
        manager = _manager(stub_script, lifetime=0)
        manager.start(1)
        manager.stop_all(timeout=10)
        manager.stop_all(timeout=10)  # must not raise
        assert manager.state_of(0) == STOPPED
