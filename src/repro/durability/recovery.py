"""One-call recovery of a data directory into live service state."""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.durability.checkpoint import read_checkpoint
from repro.durability.codec import restore_tracker_state
from repro.durability.disk import OS_DISK, Disk
from repro.durability.store import DurableMetricsStore
from repro.durability.wal import scan_segment
from repro.heron.tracker import TopologyTracker

__all__ = ["open_data_dir", "peek_recoverable_lsn"]


def open_data_dir(
    data_dir: str | Path, **options: Any
) -> tuple[DurableMetricsStore, TopologyTracker]:
    """Recover (or initialise) a data directory.

    Returns a :class:`DurableMetricsStore` restored from snapshot + WAL
    replay (``options`` are its keyword parameters: ``fsync``,
    ``disk``, ``telemetry``, …) and a :class:`TopologyTracker`
    re-registered from the last checkpoint's topology snapshot.  A fresh
    directory yields an empty store and tracker — the same call serves
    first boot and restart.
    """
    store = DurableMetricsStore(data_dir, **options)
    tracker = TopologyTracker()
    if store.tracker_snapshot is not None:
        restore_tracker_state(tracker, store.tracker_snapshot)
    return store, tracker


def peek_recoverable_lsn(data_dir: str | Path, disk: Disk = OS_DISK) -> int:
    """The highest LSN a recovery of ``data_dir`` would restore.

    An offline, read-only scan: the checkpoint's ``last_lsn`` plus
    every whole CRC-framed record in the WAL segments (torn tails stop
    the scan of a segment, exactly as replay would) — a CRC walk that
    decodes only each segment's last record, for its LSN.  A missing or
    empty directory peeks as 0.  The shard manager compares this
    against a follower's applied LSN before respawning a crashed worker
    — a data directory that would recover *less* than its replica holds
    (wiped, truncated) triggers promotion instead of a silent respawn
    onto lost state.  Raises :class:`~repro.errors.DurabilityError`
    when the checkpoint exists but cannot be decoded (corruption is a
    promotion trigger too, and the caller decides).
    """
    data_dir = Path(data_dir)
    checkpoint = read_checkpoint(data_dir, disk)
    last = int(checkpoint.get("last_lsn", 0)) if checkpoint else 0
    wal_dir = data_dir / "wal"
    try:
        names = disk.listdir(wal_dir)
    except (FileNotFoundError, NotADirectoryError):
        names = []
    for name in names:
        if name.startswith("wal-") and name.endswith(".log"):
            with disk.open_read(wal_dir / name) as handle:
                last = max(last, scan_segment(handle)[1])
    return last
