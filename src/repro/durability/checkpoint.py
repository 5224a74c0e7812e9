"""Atomic checkpoints: snapshot state, then reclaim replayed WAL.

A checkpoint is a single JSON file, ``checkpoint.json``, written with
the store's disk's atomic write (temp file in the same directory → flush
→ fsync → rename → directory fsync,
:meth:`~repro.durability.disk.Disk.atomic_write`), so a crash at any
instant leaves either the previous checkpoint or the new one — never a
truncated hybrid.  The payload records the WAL position (``last_lsn``)
the snapshot covers; recovery restores the snapshot and replays only
records past that position.  After a successful replace the manager
prunes WAL segments the snapshot has subsumed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.durability.codec import encode_tracker_state
from repro.durability.disk import OS_DISK, Disk
from repro.errors import DurabilityError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.durability.store import DurableMetricsStore
    from repro.heron.tracker import TopologyTracker

__all__ = ["CHECKPOINT_FORMAT", "CheckpointManager"]

CHECKPOINT_FORMAT = "repro-checkpoint-v1"
CHECKPOINT_FILENAME = "checkpoint.json"


def read_checkpoint(
    directory: str | Path, disk: Disk = OS_DISK
) -> dict[str, Any] | None:
    """The checkpoint payload, or ``None`` when none has been written."""
    path = Path(directory) / CHECKPOINT_FILENAME
    try:
        with disk.open_read(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DurabilityError(
            f"checkpoint {path} is corrupt or truncated: {exc}"
        ) from exc
    if (
        not isinstance(payload, dict)
        or payload.get("format") != CHECKPOINT_FORMAT
    ):
        raise DurabilityError(
            f"{path} is not a {CHECKPOINT_FORMAT} checkpoint "
            f"(format={payload.get('format') if isinstance(payload, dict) else None!r})"
        )
    return payload


class CheckpointManager:
    """Snapshots a durable store (and optionally a tracker) atomically.

    Parameters
    ----------
    store:
        The :class:`DurableMetricsStore` whose series and WAL this
        manager snapshots and truncates.
    tracker:
        When given, its registered topologies (packing plans included)
        ride along in the same atomic snapshot.
    """

    def __init__(
        self,
        store: "DurableMetricsStore",
        tracker: "TopologyTracker | None" = None,
    ) -> None:
        self.store = store
        self.tracker = tracker
        self.checkpoints_taken = 0

    @property
    def path(self) -> Path:
        """Where the checkpoint file lives."""
        return self.store.data_dir / CHECKPOINT_FILENAME

    def checkpoint(self) -> dict[str, Any]:
        """Take one checkpoint; returns a small summary dict.

        The snapshot is cut under the store's journal lock (so it is a
        consistent prefix of the WAL ending exactly at ``last_lsn``) but
        serialisation, the atomic replace and segment pruning all happen
        outside it — concurrent writers only block for the state copy.
        """
        state, last_lsn = self.store.snapshot_state()
        payload: dict[str, Any] = {
            "format": CHECKPOINT_FORMAT,
            "last_lsn": last_lsn,
            "retention_seconds": self.store.retention_seconds,
            "store": state,
            "tracker": (
                encode_tracker_state(self.tracker)
                if self.tracker is not None
                else None
            ),
        }
        # Durable before any segment it subsumes goes.
        self.store.wal.disk.atomic_write(
            self.path, json.dumps(payload).encode("utf8")
        )
        pruned = self.store.wal.prune_through(last_lsn)
        self.checkpoints_taken += 1
        return {
            "last_lsn": last_lsn,
            "series": len(state["series"]),
            "segments_pruned": pruned,
            "topologies": (
                len(payload["tracker"]["topologies"])
                if payload["tracker"] is not None
                else 0
            ),
        }
