"""A deterministic, in-process cluster: one world, a fixed list of systems.

The real :class:`~repro.cluster.router.RouterApp`,
:class:`~repro.cluster.shard.ShardManager`, shard workers
(:class:`~repro.api.app.CaladriusApp` over a
:class:`~repro.durability.store.DurableMetricsStore` under
``fsync="always"``), their :class:`~repro.cluster.shipping.SegmentShipper`
and their followers (:class:`~repro.cluster.follower.FollowerApp`) run on
one thread, joined only through the seams production defaults to the
operating system:

- **transport** — :class:`Network`: each process listens on a port, a
  connection is a :class:`Loopback` to the hosted app's ``handle``, and
  a link ``(source, destination)`` can be cut, slowed or lose its next
  answer;
- **clock** — one :class:`~tests.clock.ManualClock`: nothing waits for
  real, and time moves only when a tick (or the supervisor's back-off
  sleep) moves it — within a tick the systems act at once, so a request
  that times out (paused peer, cut link, a delay past its timeout) fails
  at once;
- **processes** — :class:`Processes`, the manager's process seam:
  spawning opens the shard's data directory on one
  :class:`~tests.durability.page_cache.PageCacheDisk`, so a killed
  process loses exactly what it had not flushed, and a paused one stops
  answering until it resumes or is killed.

:meth:`World.tick` advances virtual time by :data:`TICK` and runs the
systems in order: the writer (one sample, topologies in turn), ship
passes (one per live worker), one supervision step, then the
availability probe.  Everything else — more writes, reads, stale-epoch
fence probes, and the four chaos events (``kill9``, ``pause``,
``partition``, ``wipe``) — is a step a scheduler calls between ticks;
:meth:`World.check` holds the invariants after each one and
:meth:`World.quiesce` checks convergence.  The same steps give the same
final state, hash for hash.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any
from urllib.parse import urlsplit

from repro.api.app import CaladriusApp
from repro.api.client import CaladriusClient
from repro.api.server import parse_query_strict
from repro.cluster.client import ClusterClient
from repro.cluster.follower import FollowerApp, FollowerReplica
from repro.cluster.ring import HashRing
from repro.cluster.router import RouterApp
from repro.cluster.shard import _MIN_HEALTHY_UPTIME, READY, ClusterError, ShardManager
from repro.cluster.shipping import SegmentShipper
from repro.config import load_config
from repro.durability import open_data_dir
from repro.durability.codec import store_content_hash
from repro.errors import ApiError, ReproError
from repro.telemetry import Telemetry
from tests.clock import ManualClock
from tests.durability.page_cache import PageCacheDisk

HOST = "127.0.0.1"
#: Virtual seconds one tick advances.
TICK = 0.5
#: Longest a topology may be unreadable (stale reads count), in virtual
#: seconds: a pause outlives the liveness bound, then a respawn.
UNAVAILABILITY_BOUND = 12.0
#: The one metric every write and read uses.
METRIC = "sim-samples"
#: Workers and followers run without the serving layer (no threads).
CONFIG = load_config({"serving": {"enabled": False}})
#: Seconds a request waits for an answer before it times out.
TIMEOUT = 1.0


def topologies(shards: int, per_shard: int = 2) -> dict[str, int]:
    """Topology names the ring spreads ``per_shard`` to each shard."""
    ring = HashRing(list(range(shards)))
    owned: dict[int, list[str]] = {shard: [] for shard in range(shards)}
    for index in itertools.count():
        if all(len(names) == per_shard for names in owned.values()):
            break
        name = f"t{index}"
        names = owned[ring.shard_for(name)]
        if len(names) < per_shard:
            names.append(name)
    return {name: shard for shard, names in owned.items() for name in names}


class Process:
    """One simulated process: an app on a port, alive until killed."""

    def __init__(
        self,
        world: "World",
        name: str,
        app: Any,
        store: Any = None,
        replica: FollowerReplica | None = None,
        epoch: int | None = None,
    ) -> None:
        self.world = world
        self.name = name
        self.app = app
        self.store = store
        self.shipper: SegmentShipper | None = getattr(app, "shipper", None)
        self.replica = replica
        self.epoch = epoch
        self.pid = self.port = next(world.ports)
        self.code: int | None = None
        self.paused_until = 0.0
        self.dies_at: float | None = None
        world.network.hosts[self.port] = self

    @property
    def exit_code(self) -> int | None:
        if self.code is None and self.dies_at is not None:
            if self.world.clock.now >= self.dies_at:
                self.code = 1
        return self.code

    @property
    def answering(self) -> bool:
        return self.exit_code is None and self.world.clock.now >= self.paused_until


class Loopback:
    """A connection to a process: the :data:`~repro.api.client.Transport`."""

    used = False

    def __init__(self, network: "Network", source: str, port: int, timeout: float):
        process = network.hosts.get(port)
        if process is None or process.exit_code is not None:
            raise ConnectionRefusedError(f"{source}: nothing listens on {port}")
        self.network, self.source, self.port, self.timeout = network, source, port, timeout

    def exchange(self, method, path, payload, headers):
        return self.network.exchange(
            self.source, self.port, self.timeout, method, path, payload, headers
        )

    def close(self) -> None:
        pass


class Network:
    """Ports to processes, and what each link ``(source, name)`` does."""

    def __init__(self, clock: ManualClock) -> None:
        self.clock = clock
        self.hosts: dict[int, Process] = {}
        self.cut_until: dict[tuple[str, str], float] = {}
        self.slow: dict[tuple[str, str], tuple[float, float]] = {}
        self.lose_next_answer: set[tuple[str, str]] = set()
        #: ``(shard, epoch) -> pids`` of every worker that accepted a write.
        self.writers: dict[tuple[int, int], set[int]] = {}

    def transport(self, source: str):
        return lambda host, port, timeout: Loopback(self, source, port, timeout)

    def exchange(self, source, port, timeout, method, path, payload, headers):
        process = self.hosts[port]
        if process.exit_code is not None:
            raise ConnectionResetError(f"{source} -> {process.name}: reset")
        link = (source, process.name)
        delay, until = self.slow.get(link, (0.0, 0.0))
        late = self.clock.now < until and delay >= timeout
        if late or not process.answering or self.clock.now < self.cut_until.get(link, 0.0):
            raise TimeoutError(f"{source} -> {process.name}: timed out")
        status, document = _serve(process.app, method, path, payload, headers)
        if status == 200 and process.epoch is not None and (
            method == "POST" and path.startswith("/metrics/write")
        ):
            shard = process.app.shard_id
            self.writers.setdefault((shard, process.epoch), set()).add(process.pid)
        if link in self.lose_next_answer:
            self.lose_next_answer.discard(link)
            raise ConnectionResetError(f"{source} -> {process.name}: answer lost")
        received = {"content-type": "application/json"}
        hint = document.get("retry_after")
        if isinstance(hint, (int, float)) and not isinstance(hint, bool):
            received["retry-after"] = str(int(hint))
        return status, received, json.dumps(document).encode("utf8"), False


def _serve(app, method, target, payload, headers) -> tuple[int, dict[str, Any]]:
    """What the HTTP listener hands the app: query, body and headers as parsed."""
    split = urlsplit(target)
    try:
        query = parse_query_strict(split.query)
    except ApiError as exc:
        return exc.status, {"error": str(exc)}
    if split.path.startswith(tuple(app.raw_body_paths)):
        body: Any = payload or b""
    else:
        body = json.loads(payload) if payload else {}
    lowered = {name.lower(): value for name, value in headers.items()}
    return app.handle(method, split.path, query, body, lowered)


class Processes:
    """The shard manager's process seam, in-process.

    ``lifetime`` makes every worker die (exit code 1) that many virtual
    seconds after it spawns — a crash loop.
    """

    def __init__(
        self, world: "World", replicated: bool = True, lifetime: float | None = None
    ) -> None:
        self.world = world
        self.replicated = replicated
        self.lifetime = lifetime
        self.spawned = 0

    def spawn_worker(self, shard_id: int, ship_to: str | None, epoch: int) -> Process:
        world = self.world
        # One registry per worker, as ``serve`` builds one per process.
        telemetry = Telemetry(world.clock)
        try:
            store, tracker = open_data_dir(
                world.shard_dir(shard_id), fsync="always", disk=world.disk,
                telemetry=telemetry,
            )
        except ReproError as exc:
            raise ClusterError(f"worker {shard_id} failed to recover: {exc}") from exc
        app = CaladriusApp(
            CONFIG, tracker, store, clock=world.clock, shard_id=shard_id, epoch=epoch,
            telemetry=telemetry,
        )
        name = f"worker-{shard_id}"
        if ship_to:
            app.shipper = SegmentShipper(
                store,
                ship_to,
                timeout=TIMEOUT,
                epoch=epoch,
                transport=world.network.transport(name),
            )
            app.sync_ship = True
        process = Process(world, name, app, store=store, epoch=epoch)
        if self.lifetime is not None:
            process.dies_at = world.clock.now + self.lifetime
        self.spawned += 1
        return process

    def spawn_follower(self, shard_id: int) -> Process:
        world = self.world
        replica = FollowerReplica(world.replica_dir(shard_id), disk=world.disk)
        inner = CaladriusApp(
            CONFIG, replica.tracker, replica.store, clock=world.clock, read_only=True
        )
        self.spawned += 1
        return Process(world, f"follower-{shard_id}", FollowerApp(replica, inner), replica=replica)

    @staticmethod
    def exit_code(process: Process) -> int | None:
        return process.exit_code

    @staticmethod
    def kill(process: Process) -> None:
        """SIGKILL: nothing is flushed; the page cache keeps what was."""
        if process.exit_code is None:
            process.code = -9

    @staticmethod
    def terminate(process: Process, timeout: float, label: str) -> None:
        """SIGTERM: a worker's store is flushed and closed."""
        if process.exit_code is None:
            if process.store is not None:
                process.store.close()
            process.code = 0


@dataclass
class World:
    """One cluster in virtual time, and the ledger its checks read."""

    shards: int = 2
    replicated: bool = True
    lifetime: float | None = None
    #: ``True`` supervises on the manager's own monitor thread
    #: (:meth:`ShardManager.start`) instead of one step per :meth:`tick`.
    monitor: bool = False
    clock: ManualClock = field(default_factory=ManualClock)
    disk: PageCacheDisk = field(default_factory=PageCacheDisk)
    root: Path = Path("cluster")

    def __post_init__(self) -> None:
        self.ports = itertools.count(20000)
        self.network = Network(self.clock)
        self.processes = Processes(self, self.replicated, self.lifetime)
        self.owners = topologies(self.shards)
        self.names = sorted(self.owners)
        #: ``topology -> [(timestamp, value)]`` of every acknowledged write.
        self.acked: dict[str, list[tuple[int, float]]] = {n: [] for n in self.names}
        self.counters = {name: 0 for name in self.names}
        self.last_read: dict[str, set[tuple[int, float]]] = {}
        self.fence_accepted: list[tuple[int, int]] = []
        self.fence_refused = 0
        self.down_since: dict[str, float] = {}
        self.windows: list[float] = []
        self.log: list[tuple] = []
        self.ticks = 0
        self.manager = ShardManager(
            self.processes,
            host=HOST,
            ready_timeout=5.0,
            restart_backoff_seconds=0.2,
            shard_dirs=(
                (lambda i: (self.shard_dir(i), self.replica_dir(i)))
                if self.replicated
                else None
            ),
            epoch_path=self.root / "epochs.json",
            unresponsive_timeout_seconds=2.0,
            clock=self.clock,
            transport=self.network.transport("manager"),
            disk=self.disk,
        )
        if self.monitor:
            self.manager.start(self.shards)
        else:
            self.manager.boot(self.shards)
        self.router = RouterApp(
            CONFIG,
            self.manager,
            proxy_timeout=TIMEOUT,
            clock=self.clock,
            transport=self.network.transport("router"),
        )
        self.router_port = Process(self, "router", self.router).port
        self.client = ClusterClient(
            HOST,
            self.router_port,
            ring_ttl_seconds=1.0,
            timeout=TIMEOUT,
            retries=0,
            clock=self.clock,
            transport=self.network.transport("client"),
        )
        self.reader = self._client("reader", self.router_port)

    # -- plumbing -------------------------------------------------------
    def shard_dir(self, shard: int) -> Path:
        return self.root / f"shard-{shard}"

    def replica_dir(self, shard: int) -> Path:
        return self.root / f"replica-{shard}"

    def _client(self, source: str, port: int) -> CaladriusClient:
        return CaladriusClient(
            HOST,
            port,
            timeout=TIMEOUT,
            retries=0,
            clock=self.clock,
            transport=self.network.transport(source),
        )

    def worker(self, shard: int) -> Process | None:
        handle = self.manager.handle(shard)
        return None if handle is None else handle.worker

    def follower(self, shard: int) -> Process | None:
        handle = self.manager.handle(shard)
        return None if handle is None else handle.follower

    def _healthy(self, shard: int) -> bool:
        """Ready for longer than a crash loop allows: a chaos target that
        exercises failover, not the crash-loop give-up."""
        handle = self.manager.handle(shard)
        return (
            handle is not None
            and handle.state == READY
            and handle.worker is not None
            and handle.worker.answering
            and self.clock.now - handle.became_ready > _MIN_HEALTHY_UPTIME
        )

    def close(self) -> None:
        self.manager.stop_all(timeout=0)
        self.router._fanout.shutdown(wait=False)

    # -- the systems, in tick order ---------------------------------------
    def tick(self, ticks: int = 1) -> None:
        for _ in range(ticks):
            self.clock.advance(TICK)
            self.write(self.ticks)
            self.ticks += 1
            self.ship()
            self.manager.supervise()
            self.probe()
        self.log.append(("tick", ticks))

    def ship(self) -> None:
        """Each answering worker's background ship pass."""
        for shard in range(self.shards):
            worker = self.worker(shard)
            if worker is not None and worker.shipper is not None and worker.answering:
                worker.shipper.ship_pass()

    def probe(self) -> None:
        """Read every topology (stale reads allowed); time its outages."""
        for name in self.names:
            try:
                self.reader.read_metrics(METRIC, {"topology": name}, allow_stale=True)
            except (ApiError, OSError):
                self.down_since.setdefault(name, self.clock.now)
                continue
            began = self.down_since.pop(name, None)
            if began is not None:
                self.windows.append(self.clock.now - began)

    # -- steps ------------------------------------------------------------
    def write(self, topology: int) -> None:
        name = self.names[topology % len(self.names)]
        self.counters[name] += 1  # a failed write may still have landed
        sample = (self.counters[name] * 60, float(self.counters[name]))
        try:
            self.client.write_metrics(METRIC, [list(sample)], {"topology": name})
        except (ApiError, OSError):
            self.log.append(("write", name, "failed"))
            return
        self.acked[name].append(sample)
        self.log.append(("write", name, sample))

    def read(self, topology: int, stale: bool = False) -> bool:
        """A read through the router: never backwards unless stale, and
        never without a write acknowledged before it began.  Whether the
        router answered."""
        name = self.names[topology % len(self.names)]
        acked = set(self.acked[name])
        try:
            series = self.reader.read_metrics(METRIC, {"topology": name}, allow_stale=stale)
        except (ApiError, OSError):
            self.log.append(("read", name, stale, "failed"))
            return False
        seen = {
            (int(t), float(v))
            for entry in series
            for t, v in zip(entry["timestamps"], entry["values"])
        }
        self.log.append(("read", name, stale, len(seen)))
        if stale:
            return True
        assert acked <= seen, f"read of {name} lost acked samples {sorted(acked - seen)}"
        before = self.last_read.get(name, set())
        assert before <= seen, f"read of {name} went backwards: {sorted(before - seen)}"
        self.last_read[name] = seen
        return True

    def fence_probe(self, shard: int) -> None:
        """A write stamped with the previous epoch, straight to the worker."""
        worker = self.worker(shard)
        if worker is None or not worker.answering:
            return
        epoch = self.manager.epoch_of(shard)
        client = self._client("prober", worker.port)
        try:
            client.write_metrics(
                "fence-probe", [[60 * (len(self.log) + 1), 1.0]],
                {"topology": f"fence-{shard}"}, epoch=epoch - 1,
            )
        except ApiError as exc:
            if exc.status == 409 and exc.payload.get("fenced"):
                self.fence_refused += 1
        except OSError:
            pass
        else:
            self.fence_accepted.append((shard, epoch - 1))
        self.log.append(("fence_probe", shard, epoch - 1))

    def kill9(self, shard: int) -> None:
        if self._healthy(shard):
            Processes.kill(self.worker(shard))
            self.log.append(("kill9", shard))

    def pause(self, shard: int, seconds: float) -> None:
        if self._healthy(shard):
            self.worker(shard).paused_until = self.clock.now + seconds
            self.log.append(("pause", shard, seconds))

    def partition(self, shard: int, seconds: float) -> None:
        """Cut the shipping link from the shard's worker to its follower."""
        link = (f"worker-{shard}", f"follower-{shard}")
        self.network.cut_until[link] = self.clock.now + seconds
        self.log.append(("partition", shard, seconds))

    def wipe(self, shard: int) -> None:
        """Lose the worker's disk: kill it, then delete its data directory.

        Only when the follower holds every write the worker journaled:
        losing a disk with unreplicated acknowledged writes is disaster
        recovery, not failover.
        """
        worker, follower = self.worker(shard), self.follower(shard)
        if not (
            self._healthy(shard)
            and follower is not None
            and follower.answering
            and follower.replica.applied_lsn >= worker.store.wal.last_lsn
        ):
            return
        Processes.kill(worker)
        self.disk.remove_tree(self.shard_dir(shard))
        self.log.append(("wipe", shard))

    def lose_answer(self, shard: int, source: str) -> None:
        """The next answer from the shard's worker (or, for the worker's
        own shipper, its follower) to ``source`` is lost on the way."""
        target = f"follower-{shard}" if source == "worker" else f"worker-{shard}"
        source = f"worker-{shard}" if source == "worker" else source
        self.network.lose_next_answer.add((source, target))
        self.log.append(("lose_answer", source, target))

    def slow_link(self, shard: int, seconds: float) -> None:
        """Every hop from the router to the shard's worker takes
        ``seconds`` for the next few seconds: past the router's timeout,
        it times out."""
        link = ("router", f"worker-{shard}")
        self.network.slow[link] = (seconds, self.clock.now + 4 * seconds)
        self.log.append(("slow_link", shard, seconds))

    # -- invariants -------------------------------------------------------
    def check(self) -> None:
        """What must hold after every step."""
        assert not self.fence_accepted, (
            f"a write stamped with a superseded epoch was accepted: {self.fence_accepted}"
        )
        for (shard, epoch), pids in self.network.writers.items():
            assert len(pids) <= 1, f"shard {shard} epoch {epoch} had writers {pids}"
        for name, shard in self.owners.items():
            worker = self.worker(shard)
            if self.manager.state_of(shard) != READY or worker is None:
                continue
            if worker.exit_code is not None:
                continue  # dead, and supervision has not looked yet
            held = _samples(worker.store, name)
            lost = set(self.acked[name]) - held
            assert not lost, f"shard {shard} lost acked writes to {name}: {sorted(lost)}"
        for name, began in self.down_since.items():
            assert self.clock.now - began <= UNAVAILABILITY_BOUND, (
                f"{name} unreadable for {self.clock.now - began:.1f}s"
            )
        assert all(w <= UNAVAILABILITY_BOUND for w in self.windows), self.windows

    def quiesce(self) -> None:
        """Heal every link and pause, run ticks until every shard is ready
        and shipped, then: each follower's content hash is its worker's,
        and every acknowledged write reads back."""
        self.network.cut_until.clear()
        self.network.slow.clear()
        self.network.lose_next_answer.clear()
        for process in self.network.hosts.values():
            process.paused_until = 0.0
        for _ in range(20):
            self.tick()
            if self._converged():
                break
        self.check()
        for shard in range(self.shards):
            assert self.manager.state_of(shard) == READY, self.manager.statuses()
            if self.replicated:
                worker, follower = self.worker(shard), self.follower(shard)
                assert store_content_hash(follower.replica.store) == store_content_hash(
                    worker.store
                ), f"shard {shard}: follower never converged on its worker"
        for topology, name in enumerate(self.names):
            assert self.read(topology), f"{name} is unreadable after quiesce"
        self.log.append(("quiesce",))

    def _converged(self) -> bool:
        for shard in range(self.shards):
            worker = self.worker(shard)
            if self.manager.state_of(shard) != READY or not worker.answering:
                return False
            if self.replicated:
                follower = self.follower(shard)
                if follower is None or follower.replica.applied_lsn < worker.store.wal.last_lsn:
                    return False
        return True

    def state_hashes(self) -> tuple[str, ...]:
        """Every live worker's and follower's content hash, by shard."""
        hashes = []
        for shard in range(self.shards):
            for process in (self.worker(shard), self.follower(shard)):
                if process is not None and process.exit_code is None:
                    store = process.store if process.replica is None else process.replica.store
                    hashes.append(store_content_hash(store))
        return tuple(hashes)


def _samples(store, name: str) -> set[tuple[int, float]]:
    return {
        (int(t), float(v))
        for series in store.query(METRIC, {"topology": name}).values()
        for t, v in zip(series.timestamps.tolist(), series.values.tolist())
    }
