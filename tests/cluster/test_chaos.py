"""Chaos campaigns on the cluster simulation, as a Hypothesis state machine.

Each rule is one step of :class:`~tests.cluster.simulation.World`: a
write or read through the cluster client and router, a stale-epoch fence
probe, a tick (ship passes, one supervision step, the availability
probe), or a chaos event — ``kill9``, ``pause``, ``partition``, ``wipe``
— or a lost answer or slow link on one hop.  The invariants hold after
every step, and teardown quiesces the cluster and checks each follower
converged on its worker.  A failing run prints the steps that broke it,
shrunk.
"""

from __future__ import annotations

from hypothesis import Phase, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    get_state_machine_test,
    invariant,
    rule,
)

from repro.cluster.follower import FollowerReplica
from repro.cluster.ring import HashRing
from repro.cluster.shard import READY
from tests.cluster.simulation import METRIC, World, topologies
from tests.readings import reading

SHARDS = 2
TOPOLOGY = st.integers(0, 2 * SHARDS - 1)
SHARD = st.integers(0, SHARDS - 1)
SECONDS = st.sampled_from((1.0, 2.0, 3.0))


class ClusterMachine(RuleBasedStateMachine):
    """Writes, reads, probes, ticks and chaos, in any order."""

    def __init__(self) -> None:
        super().__init__()
        self.world = World(shards=SHARDS)

    @rule(topology=TOPOLOGY)
    def write(self, topology):
        self.world.write(topology)

    @rule(topology=TOPOLOGY, stale=st.booleans())
    def read(self, topology, stale):
        self.world.read(topology, stale)

    @rule(shard=SHARD)
    def fence_probe(self, shard):
        self.world.fence_probe(shard)

    @rule(ticks=st.integers(1, 6))
    def tick(self, ticks):
        self.world.tick(ticks)

    @rule(shard=SHARD)
    def kill9(self, shard):
        self.world.kill9(shard)

    @rule(shard=SHARD, seconds=SECONDS)
    def pause(self, shard, seconds):
        self.world.pause(shard, seconds)

    @rule(shard=SHARD, seconds=SECONDS)
    def partition(self, shard, seconds):
        self.world.partition(shard, seconds)

    @rule(shard=SHARD)
    def wipe(self, shard):
        self.world.wipe(shard)

    @rule(shard=SHARD, source=st.sampled_from(("client", "router", "worker")))
    def lose_answer(self, shard, source):
        self.world.lose_answer(shard, source)

    @rule(shard=SHARD, seconds=st.sampled_from((0.5, 2.0)))
    def slow_link(self, shard, seconds):
        self.world.slow_link(shard, seconds)

    @invariant()
    def holds(self):
        self.world.check()

    def teardown(self):
        try:
            self.world.quiesce()
            self.quiesced(self.world)
        finally:
            self.world.close()

    def quiesced(self, world: World) -> None:
        """A run ended converged (a hook for recording runs)."""


SETTINGS = settings(
    max_examples=40,
    stateful_step_count=40,
    deadline=None,
    database=None,
    derandomize=True,
    # A shrunk schedule is the report; explaining it costs more runs.
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
ClusterMachine.TestCase.settings = SETTINGS
TestClusterMachine = ClusterMachine.TestCase


def explore(seeds, examples: int = 200, machine=ClusterMachine) -> None:
    """Run the machine from each Hypothesis seed in ``seeds``, ``examples``
    runs a seed; raises, with the shrunk steps, on the first failure.

    ``python -c "from tests.cluster.test_chaos import explore;
    explore(range(100))"`` is the long campaign tier-1 is a slice of.
    """
    for value in seeds:
        test = get_state_machine_test(
            machine,
            settings=settings(SETTINGS, max_examples=examples, derandomize=False),
        )
        seed(value)(test)()


def _recorded(seeds, examples: int = 3) -> list:
    """``(steps, final state hashes)`` of every run :func:`explore` makes."""
    runs = []

    class Recording(ClusterMachine):
        def quiesced(self, world):
            runs.append((world.log, world.state_hashes()))

    explore(seeds, examples, Recording)
    return runs


class TestBuildSchedule:
    """A Hypothesis seed is a campaign: it builds the same schedule, and
    the same schedule leaves the same state, every time."""

    def test_same_seed_same_schedule(self):
        first, second = _recorded([7]), _recorded([7])
        assert first == second
        assert len(first) >= 3
        assert len({hashes for _, hashes in first}) > 1  # it wrote something

    def test_different_seeds_differ(self):
        schedules = {
            tuple(tuple(steps) for steps, _ in _recorded([seed]))
            for seed in range(3)
        }
        assert len(schedules) > 1

    def test_zero_events_is_an_empty_campaign(self):
        """Ticks alone: nothing dies, nothing is promoted, no epoch moves,
        and the followers converge."""
        world = World()
        world.tick(10)
        world.quiesce()
        assert [s["epoch"] for s in world.manager.statuses()] == [1, 1]
        assert [s["restarts"] for s in world.manager.statuses()] == [0, 0]
        assert world.windows == []

    def test_single_shard_never_wipes(self):
        """Without a follower a wipe would remove the whole data plane:
        the step is refused."""
        world = World(shards=1, replicated=False)
        world.tick(6)
        world.wipe(0)
        assert "wipe" not in [entry[0] for entry in world.log]
        assert world.worker(0).exit_code is None

    def test_a_wipe_never_lands_on_a_lagging_follower(self):
        """A wipe composed with a shipping partition would lose acked
        writes for real (disaster recovery, not failover): the wipe waits
        until the follower holds everything the worker journaled."""
        world = World()
        world.tick(6)
        world.partition(0, 3.0)
        owned = next(i for i, n in enumerate(world.names) if world.owners[n] == 0)
        world.write(owned)
        world.wipe(0)
        assert "wipe" not in [entry[0] for entry in world.log]
        world.tick(8)
        world.wipe(0)
        assert world.log[-1] == ("wipe", 0)
        world.tick(2)
        world.quiesce()


class TestChaosTopologies:
    def test_every_shard_gets_coverage(self):
        for shards in (1, 2, 3, 5):
            owners = topologies(shards, per_shard=2)
            by_shard: dict[int, int] = {}
            for shard in owners.values():
                by_shard[shard] = by_shard.get(shard, 0) + 1
            assert by_shard == {shard: 2 for shard in range(shards)}
            assert all(
                HashRing(list(range(shards))).shard_for(name) == shard
                for name, shard in owners.items()
            )

    def test_names_are_deterministic(self):
        assert topologies(3) == topologies(3)


class TestEndToEnd:
    def test_short_campaign_holds_all_invariants(self):
        """Every chaos event kind, on two shards, with writes flowing:
        all invariants after each step, convergence at the end, and the
        wipe forced a promotion whose new generation fences the old."""
        world = World()
        world.tick(6)
        steps = [
            lambda: world.pause(0, 3.0),
            lambda: world.partition(1, 2.0),
            lambda: world.tick(8),
            lambda: world.wipe(1),
            lambda: world.tick(2),
            lambda: world.kill9(0),
            lambda: world.lose_answer(0, "worker"),
            lambda: world.tick(6),
            lambda: world.fence_probe(0),
            lambda: world.fence_probe(1),
        ]
        for step in steps:
            step()
            world.check()
        world.quiesce()
        done = [entry[0] for entry in world.log]
        assert {"pause", "partition", "wipe", "kill9"} <= set(done), done
        assert sum(map(len, world.acked.values())) > 10
        assert world.manager.handle(1).promotions == 1
        assert world.manager.epoch_of(1) >= 2
        assert world.fence_refused == 2 and not world.fence_accepted


class TestChaosRecovers:
    """Each chaos event on a shard with acknowledged, replicated writes."""

    def _world_with_writes(self) -> World:
        world = World()
        world.tick(6)  # past the crash-loop window
        for topology in range(len(world.names)):
            world.write(topology)
        world.check()
        return world

    def test_kill9_respawns_on_the_same_data_dir(self):
        world = self._world_with_writes()
        epoch = world.manager.epoch_of(0)
        world.kill9(0)
        world.tick(2)
        world.check()
        assert world.manager.epoch_of(0) == epoch + 1
        assert world.manager.handle(0).promotions == 0
        world.quiesce()

    def test_a_pause_past_the_liveness_bound_is_killed_and_respawned(self):
        world = self._world_with_writes()
        world.pause(0, 30.0)
        world.tick(12)
        world.check()
        handle = world.manager.handle(0)
        assert handle.restarts == 1 and handle.state == READY
        world.quiesce()
        assert max(world.windows) <= 12.0

    def test_a_wipe_promotes_the_follower(self):
        world = self._world_with_writes()
        world.wipe(0)
        world.tick(2)
        world.check()
        assert world.manager.handle(0).promotions == 1
        assert world.manager.epoch_of(0) == 2
        world.quiesce()

    def test_a_partition_heals_and_the_follower_catches_up(self):
        world = self._world_with_writes()
        world.partition(0, 3.0)
        for topology in range(len(world.names)):
            world.write(topology)
        worker, follower = world.worker(0), world.follower(0)
        assert follower.replica.applied_lsn < worker.store.wal.last_lsn
        world.tick(8)
        assert follower.replica.applied_lsn == worker.store.wal.last_lsn
        world.quiesce()

    def test_a_lost_ship_answer_is_resynchronised_by_the_409_offset(self):
        world = self._world_with_writes()
        world.lose_answer(0, "worker")
        world.write(next(i for i, n in enumerate(world.names) if world.owners[n] == 0))
        world.tick(1)
        assert reading(world.worker(0).shipper, "shipping.failures") == 0
        world.quiesce()

    def test_every_fence_probe_is_refused(self):
        world = self._world_with_writes()
        for shard in range(world.shards):
            world.fence_probe(shard)
        assert world.fence_refused == world.shards
        world.check()


class TestMalformedAnswers:
    def test_a_follower_without_an_integer_applied_lsn_leaves_supervision_running(
        self, monkeypatch
    ):
        """``{"applied_lsn": null}`` means "no follower to compare", so a
        killed worker is still respawned (and nothing raises out of the
        supervision step that would end the monitor thread)."""
        status = FollowerReplica.status
        monkeypatch.setattr(
            FollowerReplica,
            "status",
            lambda replica: {**status(replica), "applied_lsn": None},
        )
        world = World()
        world.tick(6)
        world.write(0)
        epoch = world.manager.epoch_of(0)
        world.kill9(0)
        world.tick(2)
        assert world.manager.state_of(0) == READY
        assert world.manager.epoch_of(0) == epoch + 1

    def test_a_409_without_a_usable_offset_fails_the_pass(self):
        """A follower's 409 with a ``null`` or string offset is no offset
        to rewind to: the pass fails with ``OSError`` (counted), and the
        shipper keeps shipping."""
        world = World()
        world.tick(6)
        worker = world.worker(0)
        replica = world.follower(0).replica
        owned = next(i for i, n in enumerate(world.names) if world.owners[n] == 0)
        for bad in (None, "12", -1, True):
            original = replica.receive_segment
            replica.receive_segment = lambda name, offset, data, bad=bad: (
                409, {"offset": bad}
            )
            world.write(owned)
            try:
                assert worker.shipper.ship_pass() is True
            finally:
                replica.receive_segment = original
        assert reading(worker.shipper, "shipping.failures") == 4
        world.tick(1)
        world.quiesce()


def test_reads_see_the_ledger_through_the_router():
    world = World()
    world.tick(1)
    for topology in range(len(world.names)):
        world.write(topology)
        world.write(topology)
    for topology, name in enumerate(world.names):
        assert world.read(topology)
        assert world.last_read[name] == set(world.acked[name])
        assert len(world.acked[name]) >= 2
    series = world.reader.read_metrics(METRIC, {"topology": world.names[-1]})
    assert [len(entry["timestamps"]) for entry in series] == [2]
