"""Follower replica: replays shipped WAL segments into a read mirror.

A follower is a separate process paired with one shard.  The shard's
:class:`~repro.cluster.shipping.SegmentShipper` streams it two things —
``checkpoint.json`` whenever it changes, and raw segment bytes — and the
follower maintains:

* **a byte mirror**: shipped bytes are appended verbatim (and fsynced,
  a new segment's directory entry too) under ``replica_dir/wal/`` with
  the checkpoint beside them (written atomically), so the
  replica directory is a valid Caladrius data directory.  Losing a
  shard's disk is recoverable by pointing
  :func:`repro.durability.recovery.open_data_dir` (or ``caladrius
  recover``) at the replica;
* **a live read replica**: every *complete* frame past the applied LSN
  is replayed by the function recovery replays with
  (:func:`~repro.durability.store.replay_frames`) into an in-memory
  store and tracker, served read-only through an embedded
  :class:`~repro.api.app.CaladriusApp` — modelling queries
  (``/model/…``, ``/topologies``) work against the follower; writes are
  refused with 403.

Replication is asynchronous: a follower read may trail the shard by up
to one ship interval.  ``GET /replica/status`` reports the applied LSN
and a content hash so callers (and the scale-out benchmark) can verify
convergence.

The follower also enforces epoch fencing: it records the highest
writer-generation epoch ever stamped onto a ``/replica/…`` post
(persisted to ``shipper.epoch`` so a follower restart cannot forget a
fence) and answers 409 ``"fenced": true`` to any *older* epoch.  A
superseded zombie primary — fenced off by a promotion — can therefore
never mutate replica state, no matter how late its shipper wakes up.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from pathlib import Path
from typing import Any

from repro.cluster.epoch import fencing_rejection
from repro.durability.checkpoint import (
    CHECKPOINT_FILENAME,
    CHECKPOINT_FORMAT,
    read_checkpoint,
)
from repro.durability.codec import (
    restore_store_state,
    restore_tracker_state,
    store_content_hash,
)
from repro.durability.disk import OS_DISK, Disk
from repro.durability.store import replay_frames
from repro.errors import DurabilityError
from repro.heron.tracker import TopologyTracker
from repro.timeseries.store import MetricsStore

__all__ = ["FollowerReplica", "FollowerApp"]

logger = logging.getLogger("repro.cluster.follower")

_SEGMENT_NAME = re.compile(r"^wal-\d{16}\.log$")
_WAL_SUBDIR = "wal"
#: Where the highest fenced epoch persists inside the replica dir.
_EPOCH_FILENAME = "shipper.epoch"


class FollowerReplica:
    """Receives shipped checkpoint + segment bytes; serves replica state.

    ``disk`` is what the mirror is read and written through.
    """

    def __init__(self, replica_dir: str | Path, disk: Disk = OS_DISK) -> None:
        self.replica_dir = Path(replica_dir)
        self.wal_dir = self.replica_dir / _WAL_SUBDIR
        self.disk = disk
        disk.makedirs(self.wal_dir)
        self._mutex = threading.RLock()
        self.store: MetricsStore = MetricsStore(None)
        self.tracker = TopologyTracker()
        self.applied_lsn = 0
        self.checkpoint_lsn = 0
        self.applied_records = 0
        self.skipped_records = 0
        self.checkpoints_received = 0
        self.highest_epoch = 0
        self.fencing_409s = 0
        self._parse_offsets: dict[str, int] = {}
        self._load_epoch()
        self._bootstrap()

    # ------------------------------------------------------------------
    # Ingest endpoints (called by the HTTP layer)
    # ------------------------------------------------------------------
    def receive_checkpoint(self, raw: bytes) -> dict[str, Any]:
        """Accept a shipped ``checkpoint.json`` and reset replica state."""
        try:
            payload = json.loads(raw.decode("utf8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DurabilityError(f"shipped checkpoint is not JSON: {exc}")
        if (
            not isinstance(payload, dict)
            or payload.get("format") != CHECKPOINT_FORMAT
        ):
            raise DurabilityError("shipped checkpoint has the wrong format")
        with self._mutex:
            self.disk.atomic_write(self.replica_dir / CHECKPOINT_FILENAME, raw)
            self._reset_from_checkpoint(payload)
            self._replay_all_segments()
            self.checkpoints_received += 1
            return {"applied_lsn": self.applied_lsn}

    def receive_segment(
        self, name: str, offset: int, data: bytes
    ) -> tuple[int, dict[str, Any]]:
        """Append shipped bytes at ``offset``; 409 + our offset on a gap."""
        if not _SEGMENT_NAME.match(name):
            return 400, {"error": f"not a WAL segment name: {name!r}"}
        path = self.wal_dir / name
        with self._mutex:
            try:
                size = self.disk.size(path)
            except FileNotFoundError:
                size = 0
            if offset != size:
                return 409, {"offset": size}
            if data:
                with self.disk.open_append(path) as handle:
                    handle.write(data)
                    handle.flush()
                    self.disk.sync(handle)
                if not size:  # a new segment: make its name durable too
                    self.disk.sync_directory(self.wal_dir)
                self._apply_new_frames(path)
            return 200, {
                "offset": size + len(data),
                "applied_lsn": self.applied_lsn,
            }

    def fence(self, epoch: int | None) -> dict[str, Any] | None:
        """Check a post's epoch; the 409 body when it is superseded.

        Accepting an epoch records it (persistently) as the new high
        water mark; anything *below* the mark is refused.  ``None``
        (an unstamped post) passes — the protocol is opt-in for
        single-process and test deployments.
        """
        if epoch is None:
            return None
        with self._mutex:
            if epoch < self.highest_epoch:
                self.fencing_409s += 1
                rejection = fencing_rejection(self.highest_epoch, epoch)
                rejection["follower_epoch"] = self.highest_epoch
                return rejection
            if epoch > self.highest_epoch:
                self.highest_epoch = epoch
                self.disk.atomic_write(
                    self.replica_dir / _EPOCH_FILENAME, str(epoch).encode("utf8")
                )
            return None

    def _load_epoch(self) -> None:
        path = self.replica_dir / _EPOCH_FILENAME
        try:
            with self.disk.open_read(path) as handle:
                self.highest_epoch = int(handle.read().decode("utf8").strip())
        except FileNotFoundError:
            pass
        except (ValueError, OSError):
            logger.warning("replica epoch file is unreadable; resetting to 0")

    def status(self) -> dict[str, Any]:
        """Replication position + content hash, for convergence checks."""
        with self._mutex:
            return {
                "role": "follower",
                "replica_dir": str(self.replica_dir),
                "highest_epoch": self.highest_epoch,
                "fencing_409s": self.fencing_409s,
                "applied_lsn": self.applied_lsn,
                "checkpoint_lsn": self.checkpoint_lsn,
                "applied_records": self.applied_records,
                "skipped_records": self.skipped_records,
                "checkpoints_received": self.checkpoints_received,
                "segments": dict(sorted(self._parse_offsets.items())),
                "content_hash": store_content_hash(self.store),
                "topologies": self.tracker.names(),
            }

    # ------------------------------------------------------------------
    # Replay machinery
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        """A restarted follower rebuilds from its own mirrored files."""
        try:
            payload = read_checkpoint(self.replica_dir, self.disk)
        except DurabilityError:
            logger.warning("replica checkpoint is torn; rebuilding from WAL only")
            payload = None
        if payload is not None:
            self._reset_from_checkpoint(payload)
        self._replay_all_segments()

    def _reset_from_checkpoint(self, payload: dict[str, Any]) -> None:
        retention = payload.get("retention_seconds")
        store = MetricsStore(retention)
        restore_store_state(
            store, payload["store"], self.replica_dir / CHECKPOINT_FILENAME
        )
        tracker = TopologyTracker()
        if payload.get("tracker"):
            restore_tracker_state(tracker, payload["tracker"])
        # Swap wholesale: the embedded read-only app resolves
        # self.store/self.tracker per request, so assignment is enough.
        self.store = store
        self.tracker = tracker
        self.checkpoint_lsn = int(payload.get("last_lsn", 0))
        self.applied_lsn = self.checkpoint_lsn
        self._parse_offsets.clear()

    def _replay_all_segments(self) -> None:
        for name in sorted(self.disk.listdir(self.wal_dir)):
            if _SEGMENT_NAME.match(name):
                self._apply_new_frames(self.wal_dir / name)

    def _apply_new_frames(self, path: Path) -> None:
        """Replay complete frames past our parse offset.

        A shipped chunk may end mid-frame; the walk stops at the first
        incomplete, corrupt or undecodable frame, and the parse offset
        stays just before it so the next shipment resumes there.  Same
        stance as crash recovery otherwise: a record the store rejects
        (duplicate of checkpointed data, malformed) is skipped.
        """
        with self.disk.open_read(path) as handle:
            walk = replay_frames(
                self.store,
                handle,
                self._parse_offsets.get(path.name, 0),
                self.applied_lsn,
                advance=True,
            )
        self.applied_records += walk.replayed
        self.skipped_records += walk.skipped
        self.applied_lsn = walk.after_lsn
        self._parse_offsets[path.name] = walk.end


class FollowerApp:
    """Routes ``/replica/*`` to the replica, everything else read-only.

    Duck-types :class:`~repro.api.app.CaladriusApp` just enough for
    the one HTTP listener (:class:`~repro.api.server.CaladriusServer`)
    to host it: ``handle``, ``lifecycle``, ``config``, ``telemetry`` and
    ``raw_body_paths`` (which makes the server hand ``/replica/…``
    bodies through as raw bytes).  It deliberately has no
    ``handle_write_batch_frames`` — a follower commits nothing itself,
    so the listener routes ``write_batch`` through ``handle`` too.
    """

    raw_body_paths = ("/replica/",)

    def __init__(self, replica: FollowerReplica, app: Any) -> None:
        self.replica = replica
        self.app = app
        # The listener's view of the embedded app, which answers
        # everything but ``/replica/…`` (``GET /telemetry`` too).
        self.lifecycle = app.lifecycle
        self.config = app.config
        self.telemetry = app.telemetry

    def handle(
        self,
        method: str,
        path: str,
        query: dict[str, str],
        body: Any,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, Any]]:
        if path.startswith("/replica/"):
            return self._handle_replica(method, path, query, body)
        # Reads go to the embedded app over the replica's live state.
        self.app.store = self.replica.store
        self.app.tracker = self.replica.tracker
        return self.app.handle(method, path, query, body, headers=headers)

    def _handle_replica(
        self, method: str, path: str, query: dict[str, str], body: Any
    ) -> tuple[int, dict[str, Any]]:
        raw = body if isinstance(body, bytes) else b""
        if method == "GET" and path == "/replica/status":
            return 200, self.replica.status()
        if method == "POST":
            raw_epoch = query.get("epoch")
            if raw_epoch is not None:
                try:
                    epoch = int(raw_epoch)
                except ValueError:
                    return 400, {"error": "epoch must be an integer"}
                rejection = self.replica.fence(epoch)
                if rejection is not None:
                    return 409, rejection
        if method == "POST" and path == f"/replica/{CHECKPOINT_FILENAME}":
            try:
                return 200, self.replica.receive_checkpoint(raw)
            except DurabilityError as exc:
                return 400, {"error": str(exc)}
        if method == "POST" and path == "/replica/segment":
            name = query.get("name", "")
            try:
                offset = int(query.get("offset", "0"))
            except ValueError:
                return 400, {"error": "offset must be an integer"}
            return self.replica.receive_segment(name, offset, raw)
        return 404, {"error": f"no replica route for {method} {path}"}

    def close(self) -> None:
        self.app.shutdown()
