"""Per-shard epoch fencing: one monotonic counter per shard id.

An epoch names one *writer generation* of a shard.  The
:class:`~repro.cluster.shard.ShardManager` bumps a shard's epoch on
every worker spawn — first boot, crash respawn, and follower promotion
— and the epoch travels with every write-shaped request:

* the router stamps ``X-Shard-Epoch`` onto proxied requests;
* shard-aware clients stamp the epoch published in ``GET
  /cluster/ring``;
* the WAL shipper stamps ``epoch=`` onto every ``/replica/…`` post.

A worker rejects a write stamped with any *other* epoch, and a follower
rejects ships from any epoch *below* the highest it has seen — both
with a structured 409 carrying ``"fenced": true``.  The asymmetry is
deliberate: a worker knows exactly which generation it is (mismatch =
somebody's routing state is stale), while a follower outlives worker
generations and must only refuse the past (a superseded zombie primary
must never mutate replica state after a promotion — no split-brain).

Epochs are persisted (``epochs.json`` under the cluster data root, one
atomic write per bump) so they stay monotonic across full-cluster
restarts; without a path the store is memory-only, which is enough for
tests and non-durable clusters.
"""

from __future__ import annotations

import json
import logging
import threading
from pathlib import Path
from typing import Any

from repro.durability.disk import OS_DISK, Disk

__all__ = ["EPOCH_HEADER", "EpochStore", "fencing_rejection"]

logger = logging.getLogger("repro.cluster.epoch")

#: Request header carrying the writer's epoch on ``POST /metrics/write``.
EPOCH_HEADER = "X-Shard-Epoch"


def fencing_rejection(shard_epoch: int, request_epoch: int) -> dict[str, Any]:
    """The structured 409 body every fencing rejection answers with."""
    return {
        "error": (
            f"request epoch {request_epoch} is fenced off "
            f"(shard epoch is {shard_epoch}); refresh the ring"
        ),
        "fenced": True,
        "shard_epoch": shard_epoch,
        "request_epoch": request_epoch,
    }


class EpochStore:
    """Monotonic per-shard epoch counters with optional persistence.

    Parameters
    ----------
    path:
        JSON file the counters are persisted to (atomically, on every
        bump).  ``None`` keeps them in memory only.
    disk:
        What the file is read and written through.
    """

    def __init__(
        self, path: str | Path | None = None, disk: Disk = OS_DISK
    ) -> None:
        self._path = Path(path) if path is not None else None
        self._disk = disk
        self._lock = threading.Lock()
        self._epochs: dict[int, int] = {}
        if self._path is not None:
            self._load()

    def _load(self) -> None:
        assert self._path is not None
        try:
            with self._disk.open_read(self._path) as handle:
                payload = json.load(handle)
            raw = payload.get("epochs", {})
            self._epochs = {int(k): int(v) for k, v in raw.items()}
        except FileNotFoundError:
            pass
        except (ValueError, OSError, AttributeError):
            # A torn epoch file must not block the cluster from booting;
            # counters restart at 0 and the first bump re-persists.
            logger.warning("epoch file %s is unreadable; resetting", self._path)
            self._epochs = {}

    def current(self, shard_id: int) -> int:
        """The shard's epoch (0 when it has never been booted)."""
        with self._lock:
            return self._epochs.get(shard_id, 0)

    def bump(self, shard_id: int) -> int:
        """Advance the shard's epoch and persist; returns the new value."""
        with self._lock:
            epoch = self._epochs.get(shard_id, 0) + 1
            self._epochs[shard_id] = epoch
            if self._path is not None:
                self._disk.makedirs(self._path.parent)
                epochs = {str(k): v for k, v in self._epochs.items()}
                self._disk.atomic_write(
                    self._path, json.dumps({"epochs": epochs}).encode("utf8")
                )
            return epoch
