"""A :class:`MetricsStore` whose acknowledged writes survive ``kill -9``.

:class:`DurableMetricsStore` keeps the in-memory store as the serving
copy and journals every mutation to a :class:`WriteAheadLog` before the
call returns — under ``fsync="always"`` a write that returned is a
write that recovery will restore.  Opening a data directory runs the
recovery sequence:

1. load ``checkpoint.json`` (if present) and restore the snapshotted
   series and version counters;
2. replay WAL records with ``lsn > checkpoint.last_lsn``, skipping a
   torn final record (a crash mid-append) without aborting;
3. resume appending after the last recovered LSN.

Mutations are validated against the in-memory store *first*, then
journaled: an out-of-order timestamp raises before it can pollute the
log, and a crash between apply and append only ever loses a write the
caller was never told succeeded.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.durability.checkpoint import read_checkpoint
from repro.durability.codec import encode_store_state, restore_store_state
from repro.durability.wal import FSYNC_INTERVAL, WriteAheadLog
from repro.errors import MetricsError
from repro.timeseries.store import (
    MetricKey,
    MetricsStore,
    MinuteBatch,
    raise_first_error,
    frame_sample,
    write_head,
    write_record,
)

__all__ = [
    "DurableMetricsStore",
    "RecoveryReport",
    "apply_wal_records",
    "frame_sample",
]

logger = logging.getLogger("repro.durability.store")

_WAL_SUBDIR = "wal"
#: What a per-series journal template starts with; a record *body* (the
#: form ``WriteAheadLog.append_bodies`` takes) is the same text without it.
_LSN_SLOT = b'{"lsn":%d,'
_REPLAY_BATCH = 1024


def apply_wal_records(
    store: MetricsStore, records: Iterable[Mapping[str, Any]]
) -> tuple[int, int]:
    """Replay WAL records into a store; returns ``(replayed, skipped)``.

    The one replay function: :class:`DurableMetricsStore` recovery and
    the cluster tier's follower both hand their records here, so a
    replica replays shipped segments with exactly the semantics recovery
    uses.  Runs of ``write`` records go through the plain (unjournaled)
    keyed loop as one batch each (cut at :data:`_REPLAY_BATCH` so a long
    log is never held in memory as entries), their keys resolved through
    the store's intern table; a ``clear`` is applied in its place
    between them.  A record the store rejects (it predates the
    checkpoint cut, or duplicates a replayed sample), whose ``op`` is
    unknown, or that is malformed — not an object, a ``write`` without a
    string ``name``, mapping ``tags`` or numeric ``ts``/``v`` — is
    skipped and counted: a CRC only vouches for the bytes, and replay
    restores everything restorable.
    """
    replayed = skipped = 0
    entries: list[tuple[MetricKey, int, float]] = []
    key_of = store.key_of

    def apply_pending() -> None:
        nonlocal replayed, skipped
        errors = MetricsStore.apply_sample_batch(store, entries)
        accepted = errors.count(None)
        replayed += accepted
        skipped += len(errors) - accepted
        entries.clear()

    def sample(record: Mapping[str, Any]) -> tuple[MetricKey, int, float]:
        name = record["name"]
        if not isinstance(name, str):
            raise TypeError("name must be a string")
        return key_of(name, record.get("tags")), int(record["ts"]), float(record["v"])

    for record in records:
        try:
            op = record.get("op")
            entry = sample(record) if op == "write" else None
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
            skipped += 1
            continue
        if entry is not None:
            entries.append(entry)
            if len(entries) >= _REPLAY_BATCH:
                apply_pending()
        elif op == "clear":
            apply_pending()
            MetricsStore.clear(store)
            replayed += 1
        else:
            skipped += 1
    apply_pending()
    return replayed, skipped


@dataclass(frozen=True)
class RecoveryReport:
    """What opening a data directory recovered, and what it cost."""

    checkpoint_lsn: int
    snapshot_samples: int
    replayed_records: int
    skipped_records: int
    torn_records: int
    last_lsn: int
    #: WAL segments and whole-frame bytes the opening scan walked, and
    #: the wall time of the open (scan + snapshot restore + replay).
    segments: int
    bytes: int
    seconds: float

    def as_dict(self) -> dict[str, int | float]:
        """JSON-friendly form (the ``recover`` CLI prints this)."""
        return asdict(self)


class DurableMetricsStore(MetricsStore):
    """Write-ahead-logged metrics store bound to a data directory.

    Parameters
    ----------
    data_dir:
        Directory holding ``checkpoint.json`` and the ``wal/`` segment
        subdirectory; created (and recovered) on construction.
    retention_seconds:
        As for :class:`MetricsStore`; ``None`` falls back to whatever
        the checkpoint recorded (so a restart keeps the configured
        retention without re-specifying it).
    fsync / fsync_interval_seconds / segment_max_bytes:
        Write-ahead-log durability knobs (see
        :class:`~repro.durability.wal.WriteAheadLog`).
    faults:
        Optional service-level fault injector threaded into the WAL.
    """

    def __init__(
        self,
        data_dir: str | Path,
        retention_seconds: int | None = None,
        fsync: str = FSYNC_INTERVAL,
        fsync_interval_seconds: float = 0.05,
        segment_max_bytes: int = 4 * 1024 * 1024,
        faults: Any | None = None,
    ) -> None:
        began = time.perf_counter()
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        checkpoint = read_checkpoint(self.data_dir)
        if retention_seconds is None and checkpoint is not None:
            retention_seconds = checkpoint.get("retention_seconds")
        super().__init__(retention_seconds)
        # One lock serialises apply+journal so WAL order always matches
        # in-memory apply order (replay must not reorder same-series
        # writes).  It is re-entrant because every journaled mutation
        # holds it around the superclass body, and it replaces the
        # superclass lock outright so a journaled write pays one lock
        # round-trip, not two.
        self._journal_lock = threading.RLock()
        self._lock = self._journal_lock
        self._journalling = False
        # The WAL shares the journal lock, so apply + journal is one
        # lock round-trip and WAL drains serialise against store reads.
        self.wal = WriteAheadLog(
            self.data_dir / _WAL_SUBDIR,
            segment_max_bytes=segment_max_bytes,
            fsync=fsync,
            fsync_interval_seconds=fsync_interval_seconds,
            faults=faults,
            lock=self._journal_lock,
        )
        if checkpoint is not None:
            # A checkpoint that reclaimed every segment leaves nothing
            # for the scan to number from; LSNs must still move forward.
            self.wal.advance_to(int(checkpoint.get("last_lsn", 0)))
        self.tracker_snapshot: dict[str, Any] | None = (
            checkpoint.get("tracker") if checkpoint else None
        )
        self.recovery = self._recover(checkpoint, began)
        self._journalling = True
        logger.info(
            "recovered data_dir=%s records=%d skipped=%d torn=%d segments=%d "
            "bytes=%d seconds=%.3f",
            self.data_dir,
            self.recovery.replayed_records,
            self.recovery.skipped_records,
            self.recovery.torn_records,
            self.recovery.segments,
            self.recovery.bytes,
            self.recovery.seconds,
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(
        self, checkpoint: dict[str, Any] | None, began: float
    ) -> RecoveryReport:
        checkpoint_lsn = 0
        snapshot_samples = 0
        if checkpoint is not None:
            checkpoint_lsn = int(checkpoint.get("last_lsn", 0))
            snapshot_samples = restore_store_state(self, checkpoint["store"])
        replayed, skipped = apply_wal_records(
            self, self.wal.replay(after_lsn=checkpoint_lsn)
        )
        return RecoveryReport(
            checkpoint_lsn=checkpoint_lsn,
            snapshot_samples=snapshot_samples,
            replayed_records=replayed,
            skipped_records=skipped,
            torn_records=self.wal.scan.torn_records,
            last_lsn=self.wal.last_lsn,
            segments=self.wal.scan.segments,
            bytes=self.wal.scan.bytes,
            seconds=time.perf_counter() - began,
        )

    # ------------------------------------------------------------------
    # Journaled mutations
    # ------------------------------------------------------------------
    def apply_sample_batch(
        self,
        entries: Sequence[tuple[MetricKey, int, float]],
        bodies: Sequence[bytes] | None = None,
    ) -> list[str | None]:
        """Apply a keyed batch, then journal what was accepted: one
        lock hold, one group commit (at most one fsync under
        ``fsync="always"``).

        Every batched writer lands here — ``write_many``, the
        simulator's minute flushes, ``POST /metrics/write`` and
        :meth:`ingest_frames` — so this is the one place a batch meets
        the log.  ``bodies`` (the client's own record bytes, the very
        ones :meth:`ingest_frames` validated) is appended verbatim
        modulo the spliced LSN prefix; without it each record is
        rendered from its series' cached template.  Rejected entries
        are never journaled.

        Invalidation listeners hear of the batch after its group commit,
        so the re-warm a write wakes does not race that write's own
        ``fsync`` — and hear of it even when the journal raised, because
        the samples are in memory either way.
        """
        touched: Collection[str | None] = ()
        try:
            with self._journal_lock:
                errors, touched = self._apply_entries(entries)
                if self._journalling:
                    accepted = [
                        self._body(*entries[idx]) if bodies is None else bodies[idx]
                        for idx, error in enumerate(errors)
                        if error is None
                    ]
                    if accepted:
                        self.wal.append_bodies(accepted)
        finally:
            self._notify(touched)
        return errors

    def write(
        self,
        name: str,
        timestamp: int,
        value: float,
        tags: Mapping[str, str] | None = None,
    ) -> None:
        """Append one sample; durable (per fsync policy) before return.

        A batch of one through the shared loop; only the journal call is
        specialised — one format pass straight into the log instead of a
        rendered body handed to ``append_bodies`` — because the cost of a
        durable ``write`` over an in-memory one is a benchmarked gate
        (``bench_wal_overhead``).
        """
        key = self.key_of(name, tags)
        touched: Collection[str | None] = ()
        try:
            with self._journal_lock:
                errors, touched = self._apply_entries(((key, timestamp, value),))
                raise_first_error(errors)
                if self._journalling:
                    if type(value) is not float:
                        value = float(value)
                    if math.isfinite(value):
                        self.wal.append_template(
                            self._template(key), int(timestamp), value
                        )
                    else:
                        self.wal.append_bodies(
                            (self._body(key, timestamp, value),)
                        )
        finally:
            self._notify(touched)

    def _template(self, key: MetricKey) -> bytes:
        """The series' record as a ``%`` template: LSN, timestamp, value."""
        buffer = self._series[key]
        template = buffer.journal_template
        if template is None:
            # %r of a finite float is its shortest round-tripping repr,
            # which is valid JSON.
            head = write_head(key.name, key.tag_dict())
            template = buffer.journal_template = (
                _LSN_SLOT + head[1:].replace(b"%", b"%%") + b'%d,"v":%r}'
            )
        return template

    def _body(self, key: MetricKey, timestamp: int, value: float) -> bytes:
        """One accepted sample as a record without the LSN."""
        value = float(value)
        if math.isfinite(value):
            return b"{" + self._template(key)[len(_LSN_SLOT):] % (
                int(timestamp), value
            )
        # repr() of inf/nan is not JSON, so no template for them.
        return write_record(
            write_head(key.name, key.tag_dict()), int(timestamp), value
        )

    def _apply_frames(
        self,
        payloads: list[bytes],
        samples: list[tuple[MetricKey, int, float] | None],
        rejected: list[dict[str, Any]],
    ) -> dict[str, Any]:
        """As :meth:`MetricsStore._apply_frames`, plus the LSN range of
        the group commit that made the acked frames durable.

        The journal lock is held for apply + journal only — long enough
        to read the range the group was issued; validation ran before,
        without it, so a large group does not stall readers for the
        time it takes to check it.
        """
        with self._journal_lock:
            result = super()._apply_frames(payloads, samples, rejected)
            if result["acked"] and self._journalling:
                result["last_lsn"] = self.wal.last_lsn
                result["first_lsn"] = self.wal.last_lsn - result["acked"] + 1
        return result

    def append_minute_batch(
        self,
        batch: MinuteBatch,
        timestamp: int,
        values: Sequence[float],
        topology: str | None = None,
    ) -> None:
        """A prepared minute through the journaled loop: one group commit."""
        if len(values) != len(batch.keys):
            raise MetricsError(
                f"batch expects {len(batch.keys)} values, got {len(values)}"
            )
        raise_first_error(
            self.apply_sample_batch(
                [(key, timestamp, value) for key, value in zip(batch.keys, values)]
            )
        )

    def clear(self) -> None:
        """Drop every stored series (journaled)."""
        with self._journal_lock:
            super().clear()
            if self._journalling:
                self.wal.append({"op": "clear"})

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    @property
    def retention_seconds(self) -> int | None:
        """The configured retention window (checkpointed for restarts)."""
        return self._retention

    def snapshot_state(self) -> tuple[dict[str, Any], int]:
        """A consistent ``(state, last_lsn)`` cut for checkpointing."""
        with self._journal_lock:
            return encode_store_state(self), self.wal.last_lsn

    def flush(self) -> None:
        """Force journaled writes to disk regardless of fsync policy."""
        with self._journal_lock:
            self.wal.flush()

    def close(self) -> None:
        """Flush and close the write-ahead log."""
        with self._journal_lock:
            self.wal.close()

    def __enter__(self) -> "DurableMetricsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
