"""Cluster chaos harness: seeded fault injection with invariant checks.

:class:`ChaosController` stands up a real replicated cluster (``serve
--shards N --replicate --sync-ship``) as a subprocess and subjects it to
a deterministic, seeded schedule of the failures the failover design
claims to survive:

``kill9``
    SIGKILL a shard worker mid-traffic (crash; WAL replay on respawn).
``pause``
    SIGSTOP a worker for a few seconds — a live-but-wedged process the
    manager's liveness probe must detect and kill.
``partition``
    SIGSTOP a follower, severing the shipping link; the shipper's 409
    offset handshake must resynchronise once the link heals.
``wipe``
    SIGSTOP the worker, delete its data directory, SIGKILL it — total
    disk loss.  Recovery validation must refuse the empty directory and
    promote the follower's byte mirror instead.

Storage faults (a failed write or fsync, a torn tail) are not injected
here: they reach the write-ahead log through its disk seam
(:mod:`repro.durability.disk`) in the in-process crash-point suite,
``tests/durability/test_crash_points.py``.

Throughout the run a writer thread appends metric samples through
:class:`~repro.cluster.client.ClusterClient` (keeping a ledger of every
*acknowledged* sample) and a prober thread reads every chaos topology
through the router (stale reads opted in), polls ring epochs, and fires
deliberate stale-epoch writes at respawned shards.  At the end the
harness checks four invariants:

1. **no_acked_write_lost** — every acknowledged sample is readable;
2. **single_writer_per_epoch** — epochs never regress and every
   stale-epoch write was fenced with a 409;
3. **replica_convergence** — each shard's store content hash equals its
   follower's;
4. **bounded_unavailability** — no topology was unreadable for longer
   than the bound (promotions and respawns are windows, not outages).

Everything derives from ``seed``: same seed, same schedule.  The
harness is wall-clock driven, so event *interleavings* can differ run
to run — the invariants are exactly the properties that must hold under
every interleaving.
"""

from __future__ import annotations

import json
import logging
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.api.client import CaladriusClient
from repro.cluster.client import ClusterClient
from repro.cluster.ring import HashRing
from repro.errors import ApiError, ReproError

__all__ = ["ChaosController", "ChaosEvent", "build_schedule"]

logger = logging.getLogger("repro.cluster.chaos")

KILL9 = "kill9"
PAUSE = "pause"
PARTITION = "partition"
WIPE = "wipe"
EVENT_KINDS = (KILL9, PAUSE, PARTITION, WIPE)

_ANNOUNCE = re.compile(r"cluster .* serving on ([\d.]+):(\d+)")


class ChaosError(ReproError):
    """The chaos harness itself failed (not an invariant violation)."""


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled failure injection."""

    kind: str
    shard_id: int
    at_seconds: float
    duration_seconds: float = 0.0


def build_schedule(
    shards: int, seed: int, duration_seconds: float, events: int
) -> list[ChaosEvent]:
    """The seeded plan: timed events, deterministic in the arguments.

    At most one ``wipe`` per run, and the wiped shard receives *only* its
    wipe, so invariant failures stay attributable (a wipe composed with a
    shipping partition genuinely loses acked writes — that is a
    disaster-recovery scenario, not a failover bug).
    """
    rng = random.Random(seed)
    kinds = [KILL9, KILL9, PAUSE, PARTITION, WIPE]
    raw: list[ChaosEvent] = []
    wipe_shard: int | None = None
    for _ in range(max(0, events)):
        kind = kinds[rng.randrange(len(kinds))]
        at = rng.uniform(0.15, 0.65) * duration_seconds
        shard_id = rng.randrange(shards)
        duration = 0.0
        if kind == WIPE and (wipe_shard is not None or shards < 2):
            kind = KILL9
        if kind == WIPE:
            wipe_shard = shard_id
        if kind in (PAUSE, PARTITION):
            duration = rng.uniform(1.0, 3.0)
        raw.append(
            ChaosEvent(kind, shard_id, round(at, 2), round(duration, 2))
        )
    return sorted(
        (
            event
            for event in raw
            if event.shard_id != wipe_shard or event.kind == WIPE
        ),
        key=lambda event: event.at_seconds,
    )


def chaos_topologies(
    shards: int, per_shard: int = 2, virtual_nodes: int = 64
) -> dict[str, int]:
    """Synthetic topology names covering every shard, with their owners.

    Metric writes and reads need no registration, so the harness just
    needs names the consistent-hash ring spreads across the fleet.
    """
    ring = HashRing(list(range(shards)), virtual_nodes)
    owned: dict[int, list[str]] = {shard: [] for shard in range(shards)}
    index = 0
    while any(len(names) < per_shard for names in owned.values()):
        name = f"chaos-t{index}"
        index += 1
        shard = ring.shard_for(name)
        if len(owned[shard]) < per_shard:
            owned[shard].append(name)
        if index > 10_000:  # pragma: no cover - ring is well distributed
            break
    return {
        name: shard for shard, names in owned.items() for name in names
    }


class ChaosController:
    """Runs one seeded chaos campaign against a freshly-spawned cluster.

    Parameters
    ----------
    shards / seed / duration_seconds / events:
        The campaign shape; the schedule derives deterministically from
        these via :func:`build_schedule`.
    data_root:
        Scratch directory for the cluster's shard and replica dirs.
    unavailability_bound_seconds:
        Invariant 4's ceiling on any topology's longest unreadable
        window (stale reads count as available).
    """

    def __init__(
        self,
        shards: int = 2,
        seed: int = 0,
        duration_seconds: float = 25.0,
        data_root: str | Path = ".",
        events: int = 6,
        write_interval_seconds: float = 0.04,
        probe_interval_seconds: float = 0.25,
        unavailability_bound_seconds: float = 15.0,
        quiesce_timeout_seconds: float = 60.0,
    ) -> None:
        if shards < 1:
            raise ChaosError("chaos needs at least one shard")
        if duration_seconds <= 0:
            raise ChaosError("duration must be positive")
        self.shards = shards
        self.seed = seed
        self.duration_seconds = duration_seconds
        self.data_root = Path(data_root)
        self.events = events
        self.write_interval_seconds = write_interval_seconds
        self.probe_interval_seconds = probe_interval_seconds
        self.unavailability_bound = unavailability_bound_seconds
        self.quiesce_timeout = quiesce_timeout_seconds

        self.host = "127.0.0.1"
        self.port: int | None = None
        self._process: subprocess.Popen | None = None
        self._log_tail: deque[str] = deque(maxlen=400)
        self.topologies: dict[str, int] = {}

        self._stop_threads = threading.Event()
        self._ledger_lock = threading.Lock()
        self.acked: dict[str, list[tuple[int, float]]] = {}
        self._counters: dict[str, int] = {}
        self.failed_writes = 0

        self._probe_client: CaladriusClient | None = None
        self._client: ClusterClient | None = None
        self._probes = 0
        self._stale_reads = 0
        self._epoch_high: dict[int, int] = {}
        self._epoch_regressions: list[tuple[int, int, int]] = []
        self._fence_probed: dict[int, int] = {}
        self._fence_attempts = 0
        self._fence_rejections = 0
        self._fence_accepted = 0
        self._fence_ts = 0
        self._open_windows: dict[str, float] = {}
        self._windows: list[float] = []
        self._stopped_pids: set[int] = set()
        self._known_pids: set[int] = set()
        self._executed: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Campaign
    # ------------------------------------------------------------------
    def run(self) -> dict[str, Any]:
        """Execute the campaign; returns the machine-readable report."""
        schedule = build_schedule(
            self.shards, self.seed, self.duration_seconds, self.events
        )
        self.topologies = chaos_topologies(self.shards)
        quiesced = False
        quiesce_detail = ""
        convergence: list[dict[str, Any]] = []
        missing: list[dict[str, Any]] = []
        total_acked = 0
        try:
            self._start_cluster()
            self._warmup()
            writer = threading.Thread(
                target=self._write_loop, name="chaos-writer", daemon=True
            )
            prober = threading.Thread(
                target=self._probe_loop, name="chaos-prober", daemon=True
            )
            writer.start()
            prober.start()
            self._execute(schedule)
            self._stop_threads.set()
            writer.join(timeout=15)
            prober.join(timeout=15)
            self._resume_all()
            quiesced, quiesce_detail = self._quiesce()
            if quiesced:
                self._settle_windows()
                convergence = self._check_convergence()
                missing, total_acked = self._check_acked_writes()
            else:
                with self._ledger_lock:
                    total_acked = sum(
                        len(samples) for samples in self.acked.values()
                    )
        finally:
            self._stop_threads.set()
            self._teardown()
        return self._report(
            schedule,
            quiesced,
            quiesce_detail,
            convergence,
            missing,
            total_acked,
        )

    # ------------------------------------------------------------------
    # Cluster lifecycle
    # ------------------------------------------------------------------
    def _start_cluster(self) -> None:
        self.data_root.mkdir(parents=True, exist_ok=True)
        config_path = self.data_root / "chaos-config.yaml"
        config_path.write_text(
            "caladrius:\n"
            "  cluster:\n"
            "    sync_ship: true\n"
            "    unresponsive_timeout_seconds: 2.0\n"
            "    ship_interval_seconds: 0.05\n"
            "    restart_backoff_seconds: 0.1\n"
            "    proxy_timeout_seconds: 3.0\n",
            encoding="utf8",
        )
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--config", str(config_path),
            "--shards", str(self.shards),
            "--replicate",
            "--data-dir", str(self.data_root),
            "--host", self.host, "--port", "0",
            "--fsync", "always",
            "--no-serving",
            "--drain-timeout", "2.0",
        ]
        self._process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + 120.0
        port = None
        assert self._process.stdout is not None
        while time.monotonic() < deadline:
            line = self._process.stdout.readline()
            if line:
                self._log_tail.append(line)
                match = _ANNOUNCE.search(line)
                if match:
                    port = int(match.group(2))
                    break
            elif self._process.poll() is not None:
                break
            else:
                time.sleep(0.01)
        if port is None:
            tail = "".join(list(self._log_tail)[-20:])
            raise ChaosError(
                f"cluster never announced a port\n{tail}"
            )
        threading.Thread(
            target=self._drain_log, daemon=True, name="chaos-log"
        ).start()
        self.port = port
        self._probe_client = CaladriusClient(
            self.host, port, timeout=2.0, retries=0
        )
        self._client = ClusterClient(
            self.host,
            port,
            ring_ttl_seconds=1.0,
            timeout=3.0,
            # Four router attempts per fallback: long enough to ride out
            # a respawn, short enough that a stuck write shows up as a
            # failed one.
            retries=3,
            backoff_seconds=0.05,
            backoff_max_seconds=0.5,
        )

    def _drain_log(self) -> None:
        process = self._process
        if process is None or process.stdout is None:
            return
        try:
            for line in process.stdout:
                self._log_tail.append(line)
        except (OSError, ValueError):
            pass

    def _teardown(self) -> None:
        self._resume_all()
        if self._client is not None:
            self._client.close()
        if self._probe_client is not None:
            self._probe_client.close()
        process = self._process
        if process is None:
            return
        if process.poll() is None:
            try:
                process.send_signal(signal.SIGTERM)
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                # Killing the front door orphans its children; take the
                # last-known worker/follower pids down with it.
                process.kill()
                for pid in self._known_pids:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except (ProcessLookupError, OSError):
                        pass
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass
            except (ProcessLookupError, OSError):  # pragma: no cover
                pass

    def _resume_all(self) -> None:
        for pid in list(self._stopped_pids):
            try:
                os.kill(pid, signal.SIGCONT)
            except (ProcessLookupError, OSError):
                pass
            self._stopped_pids.discard(pid)

    # ------------------------------------------------------------------
    # Load and probing
    # ------------------------------------------------------------------
    def _warmup(self) -> None:
        """One acknowledged write per topology before chaos begins."""
        assert self._client is not None
        deadline = time.monotonic() + 30.0
        pending = list(self.topologies)
        while pending and time.monotonic() < deadline:
            name = pending[0]
            if self._write_one(name):
                pending.pop(0)
            else:
                time.sleep(0.1)
        if pending:
            raise ChaosError(
                f"warmup writes never succeeded for {pending}"
            )

    def _write_one(self, name: str) -> bool:
        """One sample to ``name``'s series; ledger it if acknowledged.

        The per-topology counter advances on failure too: an errored
        write may still have landed (ack lost in flight), and reusing
        its timestamp would be rejected as a duplicate forever after.
        """
        assert self._client is not None
        counter = self._counters.get(name, 0) + 1
        self._counters[name] = counter
        sample = (counter * 60, float(counter))
        try:
            self._client.write_metrics(
                "chaos-samples", [list(sample)], {"topology": name}
            )
        except (ApiError, OSError):
            self.failed_writes += 1
            return False
        with self._ledger_lock:
            self.acked.setdefault(name, []).append(sample)
        return True

    def _write_loop(self) -> None:
        names = list(self.topologies)
        index = 0
        while not self._stop_threads.is_set():
            self._write_one(names[index % len(names)])
            index += 1
            self._stop_threads.wait(self.write_interval_seconds)

    def _probe_loop(self) -> None:
        while not self._stop_threads.is_set():
            self._probe_pass()
            self._stop_threads.wait(self.probe_interval_seconds)

    def _probe_pass(self) -> None:
        """One sweep: ring epochs, fence probes, per-topology reads."""
        assert self._probe_client is not None
        addresses: dict[str, Any] = {}
        try:
            ring = self._probe_client._request("GET", "/cluster/ring")
            statuses = {
                status["shard_id"]: status
                for status in self._probe_client._request(
                    "GET", "/cluster/stats"
                )["shards"]
            }
            for status in statuses.values():
                for key in ("pid", "follower_pid"):
                    if status.get(key):
                        self._known_pids.add(status[key])
            for shard_text, epoch in (ring.get("epochs") or {}).items():
                shard_id = int(shard_text)
                last = self._epoch_high.get(shard_id, 0)
                if int(epoch) < last:
                    self._epoch_regressions.append(
                        (shard_id, last, int(epoch))
                    )
                else:
                    self._epoch_high[shard_id] = int(epoch)
            addresses = ring.get("addresses") or {}
        except (ApiError, OSError):
            pass
        self._fence_probes(addresses)
        now = time.monotonic()
        for name in self.topologies:
            ok, stale = self._read_probe(name)
            self._probes += 1
            if stale:
                self._stale_reads += 1
            window_start = self._open_windows.get(name)
            if ok:
                if window_start is not None:
                    self._windows.append(now - window_start)
                    del self._open_windows[name]
            elif window_start is None:
                self._open_windows[name] = now

    def _read_probe(self, name: str) -> tuple[bool, bool]:
        assert self._probe_client is not None
        try:
            payload = self._probe_client._request(
                "GET",
                "/metrics/read",
                {"name": "chaos-samples", "topology": name},
                headers={"X-Allow-Stale-Read": "1"},
            )
        except (ApiError, OSError):
            return False, False
        return True, bool(payload.get("stale_read"))

    def _fence_probes(self, addresses: dict[str, Any]) -> None:
        """Write with a superseded epoch at respawned shards; expect 409.

        Each (shard, epoch) pair is probed once, and only on a
        *definitive* outcome — fenced 409 or (a violation) acceptance.
        Transport errors and unrelated rejections leave the pair
        unprobed for the next pass.
        """
        for shard_text, address in addresses.items():
            shard_id = int(shard_text)
            epoch = self._epoch_high.get(shard_id, 0)
            if (
                not address
                or epoch < 2
                or self._fence_probed.get(shard_id) == epoch
            ):
                continue
            host, _, port = address.rpartition(":")
            client = CaladriusClient(
                host, int(port), timeout=2.0, retries=0
            )
            self._fence_ts += 60
            try:
                client.write_metrics(
                    "chaos-fence-probe",
                    [[self._fence_ts, 1.0]],
                    {"topology": f"fence-{shard_id}"},
                    epoch=epoch - 1,
                )
            except ApiError as exc:
                if exc.status == 409 and (exc.payload or {}).get("fenced"):
                    self._fence_attempts += 1
                    self._fence_rejections += 1
                    self._fence_probed[shard_id] = epoch
            except OSError:
                pass
            else:
                self._fence_attempts += 1
                self._fence_accepted += 1
                self._fence_probed[shard_id] = epoch
            finally:
                client.close()

    # ------------------------------------------------------------------
    # Event execution
    # ------------------------------------------------------------------
    def _execute(self, schedule: list[ChaosEvent]) -> None:
        start = time.monotonic()
        timeline: list[tuple[float, Any]] = [
            (event.at_seconds, event) for event in schedule
        ]
        while timeline:
            timeline.sort(key=lambda item: item[0])
            at, action = timeline.pop(0)
            delay = start + at - time.monotonic()
            if delay > 0:
                if self._stop_threads.wait(delay):
                    return
            if isinstance(action, ChaosEvent):
                self._fire(action, timeline)
            else:
                action()
        remaining = start + self.duration_seconds - time.monotonic()
        if remaining > 0:
            self._stop_threads.wait(remaining)

    def _fire(
        self, event: ChaosEvent, timeline: list[tuple[float, Any]]
    ) -> None:
        record = dict(asdict(event), executed=False)
        self._executed.append(record)
        status = self._shard_status(event.shard_id)
        target_key = "follower_pid" if event.kind == PARTITION else "pid"
        pid = status.get(target_key)
        if not pid or (
            event.kind == WIPE and status.get("state") != "ready"
        ):
            record["skipped"] = (
                f"no live target (state={status.get('state', 'unknown')})"
            )
            return
        try:
            if event.kind == KILL9:
                os.kill(pid, signal.SIGKILL)
            elif event.kind in (PAUSE, PARTITION):
                os.kill(pid, signal.SIGSTOP)
                self._stopped_pids.add(pid)
                timeline.append(
                    (
                        event.at_seconds + event.duration_seconds,
                        lambda pid=pid: self._resume(pid),
                    )
                )
            elif event.kind == WIPE:
                # Stop-first ordering: a running worker could ack writes
                # into already-unlinked files between rmtree and SIGKILL,
                # and those acks would be genuinely unrecoverable.
                os.kill(pid, signal.SIGSTOP)
                shutil.rmtree(
                    self.data_root / f"shard-{event.shard_id}",
                    ignore_errors=True,
                )
                os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, OSError) as exc:
            record["skipped"] = f"signal failed: {exc}"
            return
        record["executed"] = True
        logger.info(
            "chaos: %s shard %d at t=%.1fs",
            event.kind,
            event.shard_id,
            event.at_seconds,
        )

    def _resume(self, pid: int) -> None:
        try:
            os.kill(pid, signal.SIGCONT)
        except (ProcessLookupError, OSError):
            pass  # the liveness probe killed it first; recovery handles it
        self._stopped_pids.discard(pid)

    def _shard_status(self, shard_id: int) -> dict[str, Any]:
        assert self._probe_client is not None
        try:
            stats = self._probe_client._request("GET", "/cluster/stats")
        except (ApiError, OSError):
            return {}
        for status in stats.get("shards", []):
            if status.get("shard_id") == shard_id:
                return status
        return {}

    # ------------------------------------------------------------------
    # Post-run verification
    # ------------------------------------------------------------------
    def _quiesce(self) -> tuple[bool, str]:
        """Wait for every shard to be ready again after the last event."""
        assert self._probe_client is not None
        deadline = time.monotonic() + self.quiesce_timeout
        states: dict[int, str] = {}
        while time.monotonic() < deadline:
            try:
                stats = self._probe_client._request("GET", "/cluster/stats")
                states = {
                    status["shard_id"]: status.get("state", "?")
                    for status in stats.get("shards", [])
                }
                if states and all(
                    state == "ready" for state in states.values()
                ):
                    return True, "all shards ready"
            except (ApiError, OSError):
                pass
            time.sleep(0.2)
        return False, f"shards never quiesced: {states}"

    def _settle_windows(self) -> None:
        """Close any still-open unavailability window with live probes."""
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            self._probe_pass()
            if not self._open_windows:
                return
            time.sleep(0.2)
        now = time.monotonic()
        for start in self._open_windows.values():
            self._windows.append(now - start)
        self._open_windows.clear()

    def _check_convergence(self) -> list[dict[str, Any]]:
        """Each shard's content hash must match its follower's."""
        assert self._probe_client is not None
        results: dict[int, dict[str, Any]] = {}
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                ring = self._probe_client._request("GET", "/cluster/ring")
                stats = self._probe_client._request("GET", "/cluster/stats")
            except (ApiError, OSError):
                time.sleep(0.2)
                continue
            followers = {
                status["shard_id"]: status.get("follower_port")
                for status in stats.get("shards", [])
            }
            for shard_text, address in (ring.get("addresses") or {}).items():
                shard_id = int(shard_text)
                entry = self._compare_hashes(
                    shard_id, address, followers.get(shard_id)
                )
                results[shard_id] = entry
            if len(results) == self.shards and all(
                entry["converged"] for entry in results.values()
            ):
                break
            time.sleep(0.3)
        return [results[shard_id] for shard_id in sorted(results)]

    def _compare_hashes(
        self, shard_id: int, address: str | None, follower_port: int | None
    ) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "shard_id": shard_id,
            "converged": False,
            "worker_hash": None,
            "follower_hash": None,
        }
        if not address or not follower_port:
            return entry
        host, _, port = address.rpartition(":")
        worker = CaladriusClient(host, int(port), timeout=3.0, retries=0)
        follower = CaladriusClient(
            self.host, follower_port, timeout=3.0, retries=0
        )
        try:
            entry["worker_hash"] = worker.state_hash().get("content_hash")
            entry["follower_hash"] = follower._request(
                "GET", "/replica/status"
            ).get("content_hash")
        except (ApiError, OSError):
            return entry
        finally:
            worker.close()
            follower.close()
        entry["converged"] = (
            entry["worker_hash"] is not None
            and entry["worker_hash"] == entry["follower_hash"]
        )
        return entry

    def _check_acked_writes(self) -> tuple[list[dict[str, Any]], int]:
        """Every ledgered (acked) sample must be readable post-recovery."""
        assert self._client is not None
        with self._ledger_lock:
            ledger = {
                name: list(samples) for name, samples in self.acked.items()
            }
        total = sum(len(samples) for samples in ledger.values())
        missing: list[dict[str, Any]] = []
        for name, samples in sorted(ledger.items()):
            stored: set[tuple[int, float]] = set()
            try:
                series = self._client.read_metrics(
                    "chaos-samples", {"topology": name}
                )
            except (ApiError, OSError):
                # The client's retry budget is spent on a quiesced
                # cluster: what cannot be read back counts as lost.
                series = []
            for entry in series:
                stored.update(
                    zip(
                        (int(t) for t in entry["timestamps"]),
                        (float(v) for v in entry["values"]),
                    )
                )
            lost = [s for s in samples if s not in stored]
            if lost:
                missing.append(
                    {
                        "topology": name,
                        "lost": len(lost),
                        "first": list(lost[0]),
                    }
                )
        return missing, total

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def _report(
        self,
        schedule: list[ChaosEvent],
        quiesced: bool,
        quiesce_detail: str,
        convergence: list[dict[str, Any]],
        missing: list[dict[str, Any]],
        total_acked: int,
    ) -> dict[str, Any]:
        lost = sum(entry["lost"] for entry in missing)
        max_window = max(self._windows, default=0.0)
        invariants = {
            "no_acked_write_lost": {
                "ok": quiesced and lost == 0,
                "detail": (
                    f"{lost} of {total_acked} acked samples missing"
                    if lost
                    else f"all {total_acked} acked samples present"
                ),
            },
            "single_writer_per_epoch": {
                "ok": (
                    not self._epoch_regressions
                    and self._fence_accepted == 0
                ),
                "detail": (
                    f"{self._fence_rejections}/{self._fence_attempts} "
                    f"stale-epoch writes fenced, "
                    f"{len(self._epoch_regressions)} epoch regressions"
                ),
            },
            "replica_convergence": {
                "ok": quiesced
                and len(convergence) == self.shards
                and all(entry["converged"] for entry in convergence),
                "detail": (
                    f"{sum(1 for e in convergence if e['converged'])}"
                    f"/{self.shards} shards converged"
                ),
            },
            "bounded_unavailability": {
                "ok": quiesced
                and max_window <= self.unavailability_bound,
                "detail": (
                    f"max window {max_window:.1f}s "
                    f"(bound {self.unavailability_bound:.1f}s)"
                    + ("" if quiesced else f"; {quiesce_detail}")
                ),
            },
        }
        client = self._client
        with self._ledger_lock:
            acked = sum(len(samples) for samples in self.acked.values())
        report = {
            "ok": all(entry["ok"] for entry in invariants.values()),
            "seed": self.seed,
            "shards": self.shards,
            "duration_seconds": self.duration_seconds,
            "events": self._executed
            or [dict(asdict(event), executed=False) for event in schedule],
            "invariants": invariants,
            "counters": {
                "acked_writes": acked,
                "failed_writes": self.failed_writes,
                "fenced_writes": client.fenced_writes if client else 0,
                "router_fallbacks": client.router_fallbacks if client else 0,
                "probes": self._probes,
                "stale_reads": self._stale_reads,
                "fence_attempts": self._fence_attempts,
                "fence_rejections": self._fence_rejections,
                "fence_accepted": self._fence_accepted,
            },
            "unavailability_windows": [
                round(window, 2) for window in sorted(self._windows)
            ],
            "epochs": {
                str(shard): epoch
                for shard, epoch in sorted(self._epoch_high.items())
            },
            "convergence": convergence,
            "missing": missing,
            "quiesced": quiesced,
        }
        return report
