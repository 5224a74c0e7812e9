"""ShardManager failover behaviour, driven in the cluster simulation.

The supervisor runs over in-process shards in virtual time
(:mod:`tests.cluster.simulation`); ``lifetime`` makes every worker
generation die that many virtual seconds after it spawns — enough to
drive it through crash loops, give-up, promotion and the stop/supervise
shutdown race in milliseconds, one supervision step per tick.
"""

from __future__ import annotations

from repro.cluster.shard import GAVE_UP, READY, STOPPED
from tests.clock import ManualClock
from tests.cluster.simulation import World


def _until(world: World, predicate, ticks: int = 200) -> bool:
    for _ in range(ticks):
        if predicate():
            return True
        world.tick()
    return predicate()


class TestCrashLoopGiveUp:
    def test_rapid_deaths_end_in_gave_up(self):
        """6 rapid deaths and no follower: the shard is marked gave_up."""
        world = World(shards=1, replicated=False, lifetime=0.3)
        manager = world.manager
        assert manager.state_of(0) == READY
        epoch_after_boot = manager.epoch_of(0)
        assert epoch_after_boot == 1
        assert _until(world, lambda: manager.state_of(0) == GAVE_UP), (
            f"never gave up (state={manager.state_of(0)})"
        )
        (status,) = manager.statuses()
        assert status["state"] == GAVE_UP
        assert status["rapid_deaths"] > 5
        assert "crash loop" in status["last_error"]
        # Every respawn burned a fresh epoch: no generation reuse.
        assert manager.epoch_of(0) > epoch_after_boot
        # A gave-up shard publishes no address (the router 503s).
        assert manager.address_of(0) is None
        assert manager.all_ready() is False

    def test_gave_up_surfaces_through_the_router(self):
        """Router healthz shows gave_up; owned topologies answer 503."""
        world = World(shards=1, replicated=False, lifetime=0.3)
        assert _until(world, lambda: world.manager.state_of(0) == GAVE_UP)
        router = world.router
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
        world.close()


class TestPromotion:
    def test_crash_loop_promotes_the_follower_once(self):
        """Give-up with a live follower promotes instead; a second crash
        loop (every generation dies, promoted or not) then genuinely
        gives up — the promotion budget is one."""
        world = World(shards=1, lifetime=0.3)
        disk = world.disk
        disk.atomic_write(world.replica_dir(0) / "mirror-marker", b"from the follower")
        assert _until(world, lambda: world.manager.state_of(0) == GAVE_UP), (
            f"never settled (state={world.manager.state_of(0)})"
        )
        (status,) = world.manager.statuses()
        assert status["promotions"] == 1
        # The follower's byte mirror became the primary directory…
        assert "mirror-marker" in disk.listdir(world.shard_dir(0))
        # …the superseded dir was preserved, named by its epoch…
        fenced = [d for d in disk.dirs if d.name.startswith("shard-0-fenced-e")]
        assert len(fenced) == 1
        # …and a fresh, empty replica dir was created for the next
        # follower generation.
        assert "mirror-marker" not in disk.listdir(world.replica_dir(0))
        assert status["epoch"] == world.manager.epoch_of(0)

    def test_lagging_data_dir_triggers_validation_promotion(self):
        """A worker dir that would recover less than the follower holds
        is never respawned onto lost state: the mirror is promoted on
        the first death, no crash loop required, and every acknowledged
        write is still there."""
        world = World(shards=1)
        world.tick(8)  # the writer acks (and ships) a sample a tick
        assert sum(map(len, world.acked.values())) >= 8
        wal = world.shard_dir(0) / "wal"
        for name in world.disk.listdir(wal):  # the tail is lost
            world.disk.unlink(wal / name)
        world.kill9(0)
        world.tick()
        handle = world.manager.handle(0)
        assert handle.promotions == 1, "validation promotion never happened"
        assert handle.rapid_deaths == 0  # not the crash-loop path
        world.quiesce()


class StopsDuringBackoff(ManualClock):
    """Runs ``stop`` when supervision sleeps out a restart back-off."""

    stop = None

    def sleep(self, seconds: float) -> None:
        super().sleep(seconds)
        stop, self.stop = self.stop, None
        if stop is not None:
            stop()


class TestStopRaces:
    def test_stop_all_during_restart_churn_spawns_nothing(self):
        """stop_all landing while supervision is about to respawn dead
        workers must not respawn into a torn-down cluster."""
        clock = StopsDuringBackoff()
        world = World(shards=2, replicated=False, lifetime=0.3, clock=clock)
        manager = world.manager
        world.tick()
        assert any(s.get("restarts", 0) > 0 for s in manager.statuses())
        spawned = world.processes.spawned
        clock.stop = lambda: manager.stop_all(timeout=0)
        world.tick(5)
        assert clock.stop is None, "no restart back-off was slept"
        assert world.processes.spawned == spawned
        assert {s["state"] for s in manager.statuses()} == {STOPPED}
        assert all(
            process.exit_code is not None
            for process in world.network.hosts.values()
            if process.name != "router"
        )

    def test_stop_all_joins_the_monitor_thread(self):
        """start()'s thread runs the same supervise() step: it respawns a
        dead worker, and stop_all joins it with nothing spawned after."""
        clock = ManualClock()
        world = World(shards=1, replicated=False, lifetime=0.3, monitor=True, clock=clock)
        manager = world.manager
        monitor = manager._monitor
        assert monitor is not None and monitor.is_alive()
        for _ in range(4):  # the worker dies at 0.3 s
            assert clock.await_waiters(1)  # the thread waits for its next step
            clock.advance(manager.poll_interval_seconds)  # one step on the thread
        assert clock.await_waiters(1)
        assert manager.statuses()[0]["restarts"] == 1
        spawned = world.processes.spawned
        world.close()
        assert not monitor.is_alive()
        assert manager._monitor is None
        assert world.processes.spawned == spawned
        assert manager.state_of(0) == STOPPED

    def test_stop_all_is_idempotent(self):
        world = World(shards=1)
        world.manager.stop_all(timeout=10)
        world.manager.stop_all(timeout=10)  # must not raise
        assert world.manager.state_of(0) == STOPPED
