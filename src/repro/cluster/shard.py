"""Shard process lifecycle: spawn, watch, restart, promote, stop.

A shard is one ``caladrius serve`` worker process bound to a private
data directory (and, when replication is on, one follower process its
WAL segments ship to).  :class:`ShardManager` owns the whole fleet:

* **spawn** — start follower (first, so the worker has somewhere to
  ship) then worker, parse the announce line for the ephemeral port,
  then probe ``/readyz`` until the worker admits traffic.  Every worker
  spawn bumps the shard's persistent epoch (see
  :mod:`repro.cluster.epoch`) so writes from superseded generations are
  fenced off;
* **supervise** — a monitor thread runs one supervision step
  (:meth:`ShardManager.supervise`) per poll; a worker that
  dies (``kill -9``, OOM, crash) is respawned on the *same* data
  directory, so WAL replay recovers every acknowledged write.  While it
  replays, the shard reports ``restarting`` and the router answers 503
  + ``Retry-After`` for its topologies.  Ready workers are also probed
  over HTTP — a live-but-wedged process (SIGSTOP, deadlock) is killed
  after ``unresponsive_timeout_seconds`` and takes the normal death
  path;
* **promote** — before respawning, the data directory is validated
  against the follower's applied LSN.  A directory that would recover
  *less* than its replica holds (wiped, truncated, corrupt checkpoint)
  triggers automatic promotion: the worker is fenced off, the
  follower's byte-mirror directory becomes the new primary, a fresh
  follower is spawned, and the epoch + ring version advance.  A
  crash-looping shard gets one promotion attempt too before the
  manager gives up (``gave_up``);
* **resize** — growing the fleet spawns new shard ids, shrinking drains
  and stops the highest ids; surviving ids keep their data directories
  and ring points;
* **stop** — SIGTERM every process (workers drain and checkpoint),
  escalating to SIGKILL after a bound.  A shutdown flag is checked
  before every respawn so a shard killed during shutdown is never
  respawned into a half-torn-down cluster.

Processes are started, watched and stopped through one seam
(:class:`Subprocesses` by default), and time, the HTTP probes and the
data directories go through the clock, transport and disk seams, so a
test can run the same supervision code over in-process shards in
virtual time.  The HTTP front door lives in :mod:`repro.cluster.router`.
"""

from __future__ import annotations

import logging
import re
import signal
import subprocess
import threading
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any

from repro.api.client import (
    SOCKET_TRANSPORT,
    TRANSPORT_ERRORS,
    CaladriusClient,
    Transport,
)
from repro.clock import SYSTEM_CLOCK, Clock
from repro.cluster.epoch import EpochStore
from repro.durability.disk import OS_DISK, Disk
from repro.durability.recovery import peek_recoverable_lsn
from repro.errors import ApiError, DurabilityError, ReproError

__all__ = [
    "ShardManager",
    "Subprocesses",
    "ShardHandle",
    "ClusterError",
    "STARTING",
    "READY",
    "RESTARTING",
    "PROMOTING",
    "FAILED",
    "GAVE_UP",
    "STOPPED",
]

logger = logging.getLogger("repro.cluster.shard")

STARTING = "starting"
READY = "ready"
RESTARTING = "restarting"
PROMOTING = "promoting"
FAILED = "failed"
GAVE_UP = "gave_up"
STOPPED = "stopped"

_ANNOUNCE = re.compile(r"serving on ([\d.]+):(\d+)")
#: Bound on process start + WAL replay: how long a child may take to
#: print its ``serving on host:port`` line.
_ANNOUNCE_TIMEOUT = 120.0
#: A worker that dies this quickly after becoming ready is crash-looping.
_MIN_HEALTHY_UPTIME = 2.0
#: Consecutive rapid deaths before the manager gives up on a shard.
_MAX_RAPID_RESTARTS = 5
#: Cadence of the liveness probe against ready workers.
_PROBE_INTERVAL = 1.0
#: Socket timeout of one liveness probe.
_PROBE_TIMEOUT = 1.0


class ClusterError(ReproError):
    """A cluster-tier operation failed."""


def _drain(stream: IO[str] | None, sink: list[str] | None = None) -> None:
    """Read a child's pipe to EOF so it never blocks on a full buffer."""
    if stream is None:
        return
    try:
        for line in stream:
            if sink is not None:
                sink.append(line)
                del sink[:-50]  # keep the tail for error reports
    except (OSError, ValueError):
        pass


@dataclass
class _Child:
    """One spawned process plus its parsed announce address."""

    process: subprocess.Popen
    port: int
    stderr_tail: list[str]

    @property
    def pid(self) -> int:
        return self.process.pid


def _spawn_announced(argv: list[str]) -> _Child:
    """Start ``argv`` and wait for its ``… serving on host:port`` line."""
    process = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    stderr_tail: list[str] = []
    threading.Thread(
        target=_drain, args=(process.stderr, stderr_tail), daemon=True
    ).start()
    deadline = SYSTEM_CLOCK.monotonic() + _ANNOUNCE_TIMEOUT
    while SYSTEM_CLOCK.monotonic() < deadline:
        assert process.stdout is not None
        line = process.stdout.readline()
        if line:
            match = _ANNOUNCE.search(line)
            if match:
                port = int(match.group(2))
                threading.Thread(
                    target=_drain, args=(process.stdout,), daemon=True
                ).start()
                return _Child(process, port, stderr_tail)
        elif process.poll() is not None:
            break
        else:
            SYSTEM_CLOCK.sleep(0.01)
    tail = "".join(stderr_tail[-10:])
    if process.poll() is None:
        process.kill()
        process.wait(timeout=10)
    raise ClusterError(
        f"process {argv[:4]}… never announced a port within "
        f"{_ANNOUNCE_TIMEOUT:.0f}s\n{tail}"
    )


class Subprocesses:
    """The process seam, as the operating system provides it.

    A :class:`ShardManager` starts, watches and stops its workers and
    followers only through this object: ``spawn_worker`` /
    ``spawn_follower`` return a handle with the ``port`` the process
    serves on and its ``pid``; ``exit_code`` is ``None`` while the
    process is alive; ``kill`` is SIGKILL (it lands on a stopped process
    too) and ``terminate`` is SIGTERM (the process drains and
    checkpoints), escalating to SIGKILL after a bound.  ``replicated``
    says whether shards get followers.  Tests substitute in-process
    processes with the same methods.

    Parameters
    ----------
    worker_argv:
        ``(shard_id, ship_to, epoch)`` → the worker's command line.
        ``ship_to`` is ``"host:port"`` of the shard's follower (or
        ``None``); ``epoch`` is the writer generation the worker must
        stamp and enforce.
    follower_argv:
        ``shard_id`` → the follower's command line, or ``None`` to run
        without replication.
    """

    def __init__(
        self,
        worker_argv: Callable[[int, str | None, int], list[str]],
        follower_argv: Callable[[int], list[str]] | None = None,
    ) -> None:
        self._worker_argv = worker_argv
        self._follower_argv = follower_argv
        self.replicated = follower_argv is not None

    def spawn_worker(
        self, shard_id: int, ship_to: str | None, epoch: int
    ) -> _Child:
        return _spawn_announced(self._worker_argv(shard_id, ship_to, epoch))

    def spawn_follower(self, shard_id: int) -> _Child:
        assert self._follower_argv is not None
        return _spawn_announced(self._follower_argv(shard_id))

    @staticmethod
    def exit_code(child: _Child) -> int | None:
        return child.process.poll()

    @staticmethod
    def kill(child: _Child) -> None:
        """SIGKILL and reap; lands on SIGSTOPped processes too."""
        try:
            child.process.kill()
        except (ProcessLookupError, OSError):
            return
        try:
            child.process.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - kernel oddity
            pass

    @staticmethod
    def terminate(child: _Child, timeout: float, label: str) -> None:
        """SIGTERM then (after ``timeout``) SIGKILL."""
        process = child.process
        if process.poll() is not None:
            return
        try:
            process.send_signal(signal.SIGTERM)
        except (ProcessLookupError, OSError):
            return
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            logger.warning(
                "%s ignored SIGTERM for %.1fs; killing", label, timeout
            )
            process.kill()
            process.wait(timeout=10)


class ShardHandle:
    """Mutable supervision state for one shard (guarded by the manager)."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.state = STARTING
        self.worker: _Child | None = None
        self.follower: _Child | None = None
        self.restarts = 0
        self.rapid_deaths = 0
        self.promotions = 0
        self.crash_loop_promotions = 0
        self.epoch = 0
        self.became_ready: float | None = None
        self.last_probe_at = 0.0
        self.last_probe_ok: float | None = None
        self.last_error: str | None = None

    def status(self) -> dict[str, Any]:
        """JSON shape for ``/cluster/stats`` and ``/cluster/ring``."""
        payload: dict[str, Any] = {
            "shard_id": self.shard_id,
            "state": self.state,
            "restarts": self.restarts,
            "epoch": self.epoch,
            "promotions": self.promotions,
        }
        if self.rapid_deaths:
            payload["rapid_deaths"] = self.rapid_deaths
        if self.worker is not None:
            payload["port"] = self.worker.port
            payload["pid"] = self.worker.pid
        if self.follower is not None:
            payload["follower_port"] = self.follower.port
            payload["follower_pid"] = self.follower.pid
        if self.last_error:
            payload["last_error"] = self.last_error
        return payload


class ShardManager:
    """Spawns and supervises the worker (and follower) processes.

    Parameters
    ----------
    processes:
        How workers and followers are started, watched and stopped
        (:class:`Subprocesses` runs them as child processes).
    host:
        Address the workers bind (they announce their ephemeral port).
    ready_timeout:
        Bound on the ``/readyz`` probe after a worker announced.
    restart_backoff_seconds:
        Delay before respawning a dead worker.
    shard_dirs:
        ``shard_id`` → ``(worker_dir, replica_dir)``.  Required for
        automatic promotion: the manager validates the worker dir
        against the follower before respawning and swaps the
        directories when promoting.  ``None`` disables promotion (and
        validation) entirely.
    epoch_path:
        Where per-shard epochs persist (``None`` keeps them in memory,
        which forfeits fencing across full-cluster restarts).
    unresponsive_timeout_seconds:
        A ready worker whose ``/healthz`` has not answered for this
        long is SIGKILLed (and then recovered normally).  ``0`` turns
        the liveness probe off.
    clock / transport / disk:
        What supervision waits on, how it reaches workers and followers
        (:class:`~repro.api.client.CaladriusClient`'s seams) and what the
        data directories and the epoch file are read and renamed through.
    """

    def __init__(
        self,
        processes: Subprocesses,
        host: str = "127.0.0.1",
        ready_timeout: float = 60.0,
        restart_backoff_seconds: float = 0.2,
        poll_interval_seconds: float = 0.1,
        shard_dirs: Callable[[int], tuple[Path, Path]] | None = None,
        epoch_path: str | Path | None = None,
        unresponsive_timeout_seconds: float = 10.0,
        clock: Clock = SYSTEM_CLOCK,
        transport: Transport = SOCKET_TRANSPORT,
        disk: Disk = OS_DISK,
    ) -> None:
        self._processes = processes
        self.host = host
        self.ready_timeout = ready_timeout
        self.restart_backoff_seconds = restart_backoff_seconds
        self.poll_interval_seconds = poll_interval_seconds
        self.unresponsive_timeout_seconds = unresponsive_timeout_seconds
        self._shard_dirs = shard_dirs
        self._clock = clock
        self._transport = transport
        self._disk = disk
        self._epochs = EpochStore(epoch_path, disk)
        self._lock = threading.RLock()
        self._handles: dict[int, ShardHandle] = {}
        self._version = 0
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Fleet lifecycle
    # ------------------------------------------------------------------
    def start(self, shards: int) -> None:
        """Boot ``shards`` workers (and followers) and start supervising."""
        self.boot(shards)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._monitor.start()

    def boot(self, shards: int) -> None:
        """Boot ``shards`` workers (and followers), leaving supervision
        to whoever calls :meth:`supervise` (:meth:`start`'s thread)."""
        if shards < 1:
            raise ClusterError("a cluster needs at least one shard")
        with self._lock:
            if self._handles:
                raise ClusterError("cluster already started")
            for shard_id in range(shards):
                self._handles[shard_id] = ShardHandle(shard_id)
        for shard_id in range(shards):
            self._boot_shard(shard_id)
        with self._lock:
            self._version += 1

    def _client(self, port: int, timeout: float) -> CaladriusClient:
        return CaladriusClient(
            self.host,
            port,
            timeout=timeout,
            retries=0,
            clock=self._clock,
            transport=self._transport,
        )

    def _alive(self, child: Any) -> bool:
        return child is not None and self._processes.exit_code(child) is None

    def _boot_shard(self, shard_id: int) -> None:
        """Start follower (if any) then worker, then wait for readiness.

        Bumps the shard's epoch before the worker spawns, so every
        generation — first boot, crash respawn, promotion — is uniquely
        fenced.  A no-op while the manager is stopping: a shard must
        never be (re)spawned into a half-torn-down cluster.
        """
        if self._stopping.is_set():
            return
        handle = self._handles[shard_id]
        try:
            ship_to = None
            if handle.follower is not None and not self._alive(handle.follower):
                # A dead follower gets a fresh process on the same
                # replica dir; the 409 offset handshake resynchronises
                # the shipper onto whatever the dir already holds.
                handle.follower = None
            if self._processes.replicated and handle.follower is None:
                handle.follower = self._processes.spawn_follower(shard_id)
            if handle.follower is not None:
                ship_to = f"{self.host}:{handle.follower.port}"
            epoch = self._epochs.bump(shard_id)
            with self._lock:
                handle.epoch = epoch
            child = self._processes.spawn_worker(shard_id, ship_to, epoch)
            with self._lock:
                handle.worker = child
            if self._stopping.is_set():
                self._stop_handle(handle, timeout=10.0)
                return
            client = self._client(child.port, 5.0)
            client.wait_ready(timeout=self.ready_timeout)
            client.close()
            with self._lock:
                handle.state = READY
                handle.became_ready = self._clock.monotonic()
                handle.last_probe_at = 0.0
                handle.last_probe_ok = handle.became_ready
                handle.last_error = None
        except ReproError as exc:
            with self._lock:
                handle.state = FAILED
                handle.last_error = str(exc)
            raise

    def resize(self, shards: int) -> dict[str, Any]:
        """Grow or shrink the fleet; returns what changed.

        Surviving shard ids keep their processes, data directories and
        ring points, so consistent hashing moves only the topologies
        that must move.  No data migration happens here: a topology
        whose owner changes starts with an empty metrics window on the
        new owner (the old owner's data directory keeps the history).
        """
        if shards < 1:
            raise ClusterError("a cluster needs at least one shard")
        with self._lock:
            current = sorted(self._handles)
            added = [i for i in range(shards) if i not in self._handles]
            removed = [i for i in current if i >= shards]
            for shard_id in added:
                self._handles[shard_id] = ShardHandle(shard_id)
        for shard_id in added:
            self._boot_shard(shard_id)
        for shard_id in removed:
            with self._lock:
                handle = self._handles.pop(shard_id)
                handle.state = STOPPED
            self._stop_handle(handle, timeout=30.0)
        with self._lock:
            self._version += 1
        return {"added": added, "removed": removed, "shards": self.shard_ids()}

    def stop_all(self, timeout: float = 30.0) -> None:
        """SIGTERM the whole fleet (workers drain + checkpoint), then kill."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5)
            self._monitor = None
        with self._lock:
            handles = list(self._handles.values())
            for handle in handles:
                handle.state = STOPPED
        for handle in handles:
            self._stop_handle(handle, timeout)

    def _stop_handle(self, handle: ShardHandle, timeout: float) -> None:
        if handle.worker is not None:
            self._processes.terminate(
                handle.worker, timeout, f"shard-{handle.shard_id}"
            )
        if handle.follower is not None:
            self._processes.terminate(
                handle.follower, timeout, f"follower-{handle.shard_id}"
            )

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._clock.wait(self._stopping, self.poll_interval_seconds):
            self.supervise()

    def supervise(self) -> None:
        """One supervision step: probe the ready workers, then respawn,
        promote or give up on each one found dead.

        :meth:`start`'s monitor thread runs it every
        ``poll_interval_seconds``; a caller that owns the schedule (the
        cluster simulation) runs it directly — one code path either way.
        """
        self._probe_health()
        with self._lock:
            now = self._clock.monotonic()
            for handle in self._handles.values():
                if (
                    handle.state == READY
                    and handle.became_ready is not None
                    and now - handle.became_ready > _MIN_HEALTHY_UPTIME
                ):
                    # The shard survived its post-promotion boot;
                    # a future crash loop earns a fresh attempt.
                    handle.crash_loop_promotions = 0
            dead = [
                handle
                for handle in self._handles.values()
                if handle.state == READY
                and handle.worker is not None
                and not self._alive(handle.worker)
            ]
            for handle in dead:
                uptime = (
                    now - handle.became_ready
                    if handle.became_ready is not None
                    else 0.0
                )
                handle.rapid_deaths = (
                    handle.rapid_deaths + 1
                    if uptime < _MIN_HEALTHY_UPTIME
                    else 0
                )
                handle.state = RESTARTING
                handle.restarts += 1
                handle.last_error = (
                    "worker exited with "
                    f"{self._processes.exit_code(handle.worker)}"
                )
        for handle in dead:
            if self._stopping.is_set():
                return
            if handle.rapid_deaths > _MAX_RAPID_RESTARTS:
                self._give_up(handle)
                continue
            logger.warning(
                "shard %d died (%s); recovering",
                handle.shard_id,
                handle.last_error,
            )
            self._clock.sleep(self.restart_backoff_seconds)
            if self._stopping.is_set():
                return
            try:
                self._recover_shard(handle)
            except ReproError:
                logger.exception(
                    "shard %d failed to restart", handle.shard_id
                )

    def _probe_health(self) -> None:
        """HTTP-probe ready workers; kill the ones wedged past the bound.

        ``kill -9`` handles processes that *die*; this handles the ones
        that merely stop answering (SIGSTOP, deadlock, runaway GC).
        SIGKILL lands on stopped processes too, after which the normal
        dead-worker path — validation, respawn or promotion — takes
        over.  A pause shorter than the bound resumes unharmed.
        """
        if self.unresponsive_timeout_seconds <= 0:
            return
        now = self._clock.monotonic()
        with self._lock:
            targets = [
                handle
                for handle in self._handles.values()
                if handle.state == READY
                and self._alive(handle.worker)
                and now - handle.last_probe_at >= _PROBE_INTERVAL
            ]
        for handle in targets:
            if self._stopping.is_set():
                return
            worker = handle.worker
            if worker is None:
                continue
            handle.last_probe_at = self._clock.monotonic()
            health = self._get_once(worker.port, "/healthz", _PROBE_TIMEOUT)
            if health is not None:
                handle.last_probe_ok = self._clock.monotonic()
                continue
            silent_for = (
                self._clock.monotonic() - handle.last_probe_ok
                if handle.last_probe_ok is not None
                else 0.0
            )
            if silent_for > self.unresponsive_timeout_seconds:
                logger.warning(
                    "shard %d unresponsive for %.1fs; killing the worker",
                    handle.shard_id,
                    silent_for,
                )
                self._processes.kill(worker)

    def _get_once(
        self, port: int, path: str, timeout: float
    ) -> dict[str, Any] | None:
        """One GET on a fresh connection: the 200 document, else ``None``.

        Fresh on purpose: the question is whether the process answers
        *now*, and a child may be gone before the next poll.
        """
        with self._client(port, timeout) as client:
            try:
                status, document, _ = client.exchange("GET", path)
            except (*TRANSPORT_ERRORS, ApiError):
                return None
        return document if status == 200 else None

    # ------------------------------------------------------------------
    # Recovery and promotion
    # ------------------------------------------------------------------
    def _recover_shard(self, handle: ShardHandle) -> None:
        """Respawn a dead worker — or promote its follower instead.

        The data directory is validated first: when it would recover
        less than the follower holds (or its checkpoint is corrupt),
        respawning would silently resurrect the shard on lost state, so
        the follower's mirror is promoted instead.
        """
        reason = self._promotion_reason(handle)
        if reason is not None:
            logger.warning(
                "shard %d: %s; promoting its follower",
                handle.shard_id,
                reason,
            )
            self._promote(handle)
            return
        self._boot_shard(handle.shard_id)
        with self._lock:
            self._version += 1

    def _promotion_reason(self, handle: ShardHandle) -> str | None:
        """Why the shard must be promoted rather than respawned, if so."""
        if self._shard_dirs is None:
            return None
        applied = self._follower_applied_lsn(handle)
        if applied is None:
            return None  # no live follower to compare against (or promote)
        worker_dir, _ = self._shard_dirs(handle.shard_id)
        try:
            recoverable = peek_recoverable_lsn(worker_dir, self._disk)
        except DurabilityError as exc:
            return f"data dir failed recovery validation ({exc})"
        if recoverable < applied:
            return (
                f"data dir would recover lsn {recoverable} but the "
                f"follower holds lsn {applied}"
            )
        return None

    def _follower_applied_lsn(self, handle: ShardHandle) -> int | None:
        """The live follower's applied LSN; ``None`` when it is
        unreachable or answers without an integer one."""
        if not self._alive(handle.follower):
            return None
        document = self._get_once(handle.follower.port, "/replica/status", 2.0)
        applied = None if document is None else document.get("applied_lsn")
        if not isinstance(applied, int) or isinstance(applied, bool):
            return None
        return applied

    def _promotable(self, handle: ShardHandle) -> bool:
        return self._shard_dirs is not None and self._alive(handle.follower)

    def _give_up(self, handle: ShardHandle) -> None:
        """Crash loop: promote the follower once, else mark ``gave_up``."""
        if self._promotable(handle) and handle.crash_loop_promotions < 1:
            logger.error(
                "shard %d is crash-looping; promoting its follower",
                handle.shard_id,
            )
            with self._lock:
                handle.crash_loop_promotions += 1
            self._promote(handle)
            return
        with self._lock:
            handle.state = GAVE_UP
            handle.last_error = (
                "crash loop: worker died "
                f"{handle.rapid_deaths} times within "
                f"{_MIN_HEALTHY_UPTIME:.0f}s of becoming ready"
            )
            self._version += 1
        logger.error(
            "shard %d is crash-looping; giving up", handle.shard_id
        )

    def _promote(self, handle: ShardHandle) -> None:
        """Swap the follower's mirror in as the shard's primary.

        The dead (or wedged) worker is SIGKILLed and its directory
        renamed aside as ``…-fenced-e{epoch}`` — preserved for
        forensics, and the bumped epoch guarantees any zombie still
        holding it can never be mistaken for the owner.  The follower
        is drained, its byte-mirror becomes the worker directory, and
        the shard boots a new generation with a fresh, empty follower.
        """
        assert self._shard_dirs is not None
        shard_id = handle.shard_id
        old_epoch = self._epochs.current(shard_id)
        with self._lock:
            handle.state = PROMOTING
            handle.last_error = None
        try:
            if handle.worker is not None:
                self._processes.kill(handle.worker)
                handle.worker = None
            if handle.follower is not None:
                # SIGTERM lets the follower fsync + checkpoint its
                # replica dir before we take it over.
                self._processes.terminate(
                    handle.follower, 10.0, f"follower-{shard_id}"
                )
                handle.follower = None
            worker_dir, replica_dir = (
                Path(p) for p in self._shard_dirs(shard_id)
            )
            try:
                self._disk.replace(
                    worker_dir,
                    worker_dir.with_name(
                        f"{worker_dir.name}-fenced-e{old_epoch}"
                    ),
                )
            except FileNotFoundError:
                pass  # wiped: nothing left to preserve
            self._disk.replace(replica_dir, worker_dir)
            self._disk.makedirs(replica_dir)
            with self._lock:
                handle.rapid_deaths = 0
                handle.promotions += 1
            self._boot_shard(shard_id)
            with self._lock:
                self._version += 1
            logger.warning(
                "shard %d: follower promoted (epoch %d -> %d)",
                shard_id,
                old_epoch,
                self._epochs.current(shard_id),
            )
        except (OSError, ReproError) as exc:
            with self._lock:
                handle.state = FAILED
                handle.last_error = f"promotion failed: {exc}"
                self._version += 1
            logger.exception("shard %d promotion failed", shard_id)

    # ------------------------------------------------------------------
    # Introspection (the router reads these)
    # ------------------------------------------------------------------
    def shard_ids(self) -> list[int]:
        """Current member ids (the ring is built from these)."""
        with self._lock:
            return sorted(self._handles)

    @property
    def version(self) -> int:
        """Bumped on membership, address or recovery changes."""
        with self._lock:
            return self._version

    def handle(self, shard_id: int) -> ShardHandle | None:
        with self._lock:
            return self._handles.get(shard_id)

    def address_of(self, shard_id: int) -> tuple[str, int] | None:
        """``(host, port)`` when the shard is ready, else ``None``."""
        with self._lock:
            handle = self._handles.get(shard_id)
            if (
                handle is None
                or handle.state != READY
                or handle.worker is None
            ):
                return None
            return self.host, handle.worker.port

    def follower_address_of(self, shard_id: int) -> tuple[str, int] | None:
        """``(host, port)`` of the shard's *live* follower, else ``None``.

        The router serves opted-in stale reads from here while the
        primary is restarting or promoting.
        """
        with self._lock:
            handle = self._handles.get(shard_id)
            if handle is None or handle.follower is None:
                return None
            if not self._alive(handle.follower):
                return None
            return self.host, handle.follower.port

    def epoch_of(self, shard_id: int) -> int:
        """The shard's current writer-generation epoch."""
        return self._epochs.current(shard_id)

    def epochs(self) -> dict[int, int]:
        """Epochs of all current members (published in the ring)."""
        with self._lock:
            ids = list(self._handles)
        return {shard_id: self._epochs.current(shard_id) for shard_id in ids}

    def state_of(self, shard_id: int) -> str | None:
        with self._lock:
            handle = self._handles.get(shard_id)
            return None if handle is None else handle.state

    def all_ready(self) -> bool:
        with self._lock:
            return bool(self._handles) and all(
                h.state == READY for h in self._handles.values()
            )

    def statuses(self) -> list[dict[str, Any]]:
        with self._lock:
            return [
                self._handles[shard_id].status()
                for shard_id in sorted(self._handles)
            ]
