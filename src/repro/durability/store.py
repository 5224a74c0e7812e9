"""A :class:`MetricsStore` whose acknowledged writes survive ``kill -9``.

:class:`DurableMetricsStore` keeps the in-memory store as the serving
copy and journals every mutation to a :class:`WriteAheadLog` before the
call returns — under ``fsync="always"`` a write that returned is a
write that recovery will restore.  Opening a data directory runs the
recovery sequence:

1. load ``checkpoint.json`` (if present) and restore the snapshotted
   series and version counters;
2. walk the WAL once, segment by segment: each frame is read and
   CRC-checked once, and the same walk yields the log's extent, its
   last LSN and a torn final record (a crash mid-append), which is cut
   off without aborting.  Records with ``lsn > checkpoint.last_lsn`` are
   replayed as they are read (:func:`replay_frames`): a ``write`` whose
   record head the store has already validated is resolved from its
   bytes through the head table ingest uses, so only first sightings,
   other ops and tails outside the grammar are JSON-decoded;
3. resume appending after the last recovered LSN, with the head table
   already holding every series replayed — the first ``write_batch``
   after a restart resolves by head.

Mutations are validated against the in-memory store *first*, then
journaled: an out-of-order timestamp raises before it can pollute the
log, and a crash between apply and append only ever loses a write the
caller was never told succeeded.
"""

from __future__ import annotations

import io
import json
import logging
import math
import re
import threading
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path
from sys import intern
from typing import Any

from repro.clock import SYSTEM_CLOCK
from repro.durability.checkpoint import read_checkpoint
from repro.durability.codec import encode_store_state, restore_store_state
from repro.durability.disk import OS_DISK, Disk
from repro.durability.wal import (
    _HEADER,
    _NOT_JSON,
    FSYNC_INTERVAL,
    WriteAheadLog,
    frame_windows,
    record_lsn,
)
from repro.errors import MetricsError
from repro.telemetry import Telemetry
from repro.timeseries.store import (
    _TAIL,
    MetricKey,
    MetricsStore,
    frame_sample,
    write_fields,
    write_head,
    write_record,
)

__all__ = [
    "DurableMetricsStore",
    "FrameReplay",
    "RecoveryReport",
    "frame_sample",
    "replay_frames",
]

logger = logging.getLogger("repro.durability.store")

_WAL_SUBDIR = "wal"
#: What a per-series journal template starts with; a record *body* (the
#: form ``WriteAheadLog.append_bodies`` takes) is the same text without it.
_LSN_SLOT = b'{"lsn":%d,'
_REPLAY_BATCH = 1024
#: The LSN prefix ``append_bodies`` splices in place of a body's opening
#: brace: a JSON integer (at most 18 digits, under ``int()``'s limit).
_LSN_PREFIX = re.compile(rb'\{"lsn":([1-9][0-9]{0,17}),')
#: A journal record resolvable by its head: the LSN prefix, the head after
#: its opening brace, and a tail in ingest's grammar.  Greedy, so the head
#: runs to the *last* ``,"ts":`` — the tail cannot contain the marker, so
#: this is exactly ingest's split (``rfind``) followed by its tail match.
_JOURNAL_RECORD = re.compile(
    _LSN_PREFIX.pattern + rb"(.*)" + _TAIL.pattern, re.DOTALL
)


def _decode_record(payload: bytes, prefix: re.Match | None) -> tuple[Any, int, bool]:
    """JSON-decode one journal payload: ``(record, lsn, learnable)``.

    With an LSN prefix the body after it is decoded (``{`` + the rest —
    what the client sent), so what it says about ``lsn`` is known: a
    body without one gives the prefix's LSN and is the ingest gate's
    kind of record, whose head may be learned; a body with one holds a
    duplicate top-level key, and the last one wins as in a whole-payload
    decode.  Anything else — no prefix, a body that does not decode —
    is decoded whole, which raises ``ValueError`` for a payload that is
    not JSON.
    """
    if prefix is not None:
        try:
            body = b"{" + payload[prefix.end(1) + 1 :]
            record = json.loads(body.decode("utf8"))
        except ValueError:
            record = None
        # ``{}`` came from ``{"lsn":N,}``, which is not JSON.
        if record:
            if "lsn" in record:
                return record, record_lsn(record), False
            return record, int(prefix[1]), True
    record = json.loads(payload.decode("utf8"))
    return record, record_lsn(record), False


@dataclass
class FrameReplay:
    """What :func:`replay_frames` read and did."""

    #: Whole frames read, and how many of them were JSON-decoded.
    records: int = 0
    decoded: int = 0
    #: Samples and ``clear`` records applied; records skipped (rejected
    #: by the store, malformed, or of an unknown op) — see the function.
    replayed: int = 0
    skipped: int = 0
    #: The last nonzero LSN read, and the replay cut when the walk ended.
    last_lsn: int = 0
    after_lsn: int = 0
    #: Where the walk stopped and why (``None`` at a clean end of data).
    end: int = 0
    fault: str | None = None


def replay_frames(
    store: MetricsStore,
    handle: "io.BufferedReader | io.BytesIO",
    offset: int = 0,
    after_lsn: int = 0,
    advance: bool = False,
) -> FrameReplay:
    """Replay journal frames into ``store`` from their bytes, in one walk.

    The one replay function: :class:`DurableMetricsStore` recovery and
    the cluster tier's follower both walk their segments here, so a
    replica replays shipped bytes with exactly the semantics recovery
    uses.  ``handle`` is read from ``offset`` by the frame decoder
    (:func:`~repro.durability.wal.frame_windows`, CRC walk only) until
    its end or the first frame that is not whole, CRC-valid JSON; the
    result says where and why, for the caller to truncate, raise or
    resume there.

    Records with ``lsn > after_lsn`` are replayed (with ``advance``, the
    cut moves up to each replayed record's LSN, as a follower's applied
    LSN does); a decoded value that is not an object has no LSN and is
    skipped and counted.  A ``write`` whose ``{"lsn":N,`` prefix parses,
    whose head the store's head table knows and whose tail is in the
    ingest grammar (see :meth:`MetricsStore.frame_samples`) is resolved
    from its bytes — no JSON, no tag sort, no key built.  Every other
    frame is decoded, in log order, and a ``write`` must pass
    :func:`~repro.timeseries.store.write_fields`' type rules or is
    skipped and counted: a CRC only vouches for the bytes.  A decoded
    ``write`` that would also pass the ingest gate registers its head,
    so a series is decoded at its first sighting only — and stays known
    to ``write_batch`` after the restart.

    Samples are applied through ``store.apply_sample_batch`` (whose
    journal hook does nothing until recovery has ended) in batches of
    :data:`_REPLAY_BATCH`, so a long log is never held as
    entries; a ``clear`` is applied in its place between them.  A sample
    the store rejects (it predates the checkpoint cut, or duplicates a
    replayed one) is skipped and counted.
    """
    walk = FrameReplay(after_lsn=after_lsn)
    entries: list[tuple[MetricKey, int, float]] = []
    heads = store._heads
    known = heads.get
    resolvable = _JOURNAL_RECORD.fullmatch
    after = after_lsn

    def apply_pending() -> None:
        errors = store.apply_sample_batch(entries)
        accepted = errors.count(None)
        walk.replayed += accepted
        walk.skipped += len(errors) - accepted
        entries.clear()

    for payloads, _, start, fault in frame_windows(handle, offset, decode=False):
        for index, payload in enumerate(payloads):
            match = resolvable(payload)
            if match is not None:
                lsn, head, ts, value = match.groups()
                key = known(b"{" + head)
                if key is not None:
                    lsn = walk.last_lsn = int(lsn)
                    if lsn > after:
                        if advance:
                            after = lsn
                        entries.append((key, int(ts), float(value)))
                        if len(entries) >= _REPLAY_BATCH:
                            apply_pending()
                    continue
            try:
                record, lsn, learnable = _decode_record(
                    payload, match or _LSN_PREFIX.match(payload)
                )
            except ValueError as exc:
                payloads = payloads[:index]  # the walk ends at this frame
                fault = f"{_NOT_JSON} ({exc})"
                break
            walk.decoded += 1
            if not isinstance(record, dict):
                walk.skipped += 1
                continue
            if lsn:
                walk.last_lsn = lsn
            if lsn <= after:
                continue
            if advance:
                after = lsn
            op = record.get("op")
            if op == "write":
                try:
                    name, tags, ts, value = write_fields(record)
                except MetricsError:
                    walk.skipped += 1
                    continue
                # A series' strings, interned: a recovered store's keys
                # share the few names, tag keys and values they spell.
                key = MetricKey(
                    intern(name),
                    tuple(sorted((intern(k), intern(v)) for k, v in tags.items())),
                )
                if learnable and name and match is not None:
                    store._bound_heads(1)
                    heads[b"{" + match[2]] = key
                entries.append((key, ts, value))
                if len(entries) >= _REPLAY_BATCH:
                    apply_pending()
            elif op == "clear":
                apply_pending()
                store.clear()
                walk.replayed += 1
            else:
                walk.skipped += 1
        walk.records += len(payloads)
        if fault is not None:
            start += sum(map(len, payloads)) + _HEADER.size * len(payloads)
            break
    apply_pending()
    walk.after_lsn, walk.end, walk.fault = after, start, fault
    return walk


@dataclass(frozen=True)
class RecoveryReport:
    """What opening a data directory recovered, and what it cost."""

    checkpoint_lsn: int
    snapshot_samples: int
    replayed_records: int
    skipped_records: int
    #: Frames replay JSON-decoded: first sightings of a series, records
    #: other than ``write`` and tails outside the ingest grammar; every
    #: other frame was resolved by its head.
    decoded_records: int
    torn_records: int
    last_lsn: int
    #: WAL segments and whole-frame bytes the opening walk read, and the
    #: wall time of the open (snapshot restore + walk and replay).
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
    disk:
        What the checkpoint and the WAL are read and written through
        (:mod:`repro.durability.disk`); the operating system's by default.
    telemetry:
        As for :class:`MetricsStore`; the WAL's ``wal.fsync`` span and
        the ``durability.recovery`` duration land there too.
    """

    def __init__(
        self,
        data_dir: str | Path,
        retention_seconds: int | None = None,
        fsync: str = FSYNC_INTERVAL,
        fsync_interval_seconds: float = 0.05,
        segment_max_bytes: int = 4 * 1024 * 1024,
        disk: Disk = OS_DISK,
        telemetry: Telemetry | None = None,
    ) -> None:
        began = SYSTEM_CLOCK.monotonic()
        self.data_dir = Path(data_dir)
        disk.makedirs(self.data_dir)
        checkpoint = read_checkpoint(self.data_dir, disk)
        if retention_seconds is None and checkpoint is not None:
            retention_seconds = checkpoint.get("retention_seconds")
        super().__init__(retention_seconds, telemetry)
        # The store lock, re-entrant: ``apply_sample_batch`` holds it
        # across apply and journal (so WAL order is in-memory apply
        # order; replay must not reorder same-series writes),
        # ``_apply_frames`` and ``clear`` around the superclass body,
        # and the WAL shares it, so a journaled write pays one lock
        # round-trip and WAL drains serialise against store reads.
        self._lock = threading.RLock()
        self._journalling = False
        self.tracker_snapshot: dict[str, Any] | None = (
            checkpoint.get("tracker") if checkpoint else None
        )
        checkpoint_lsn = snapshot_samples = 0
        if checkpoint is not None:
            checkpoint_lsn = int(checkpoint.get("last_lsn", 0))
            snapshot_samples = restore_store_state(self, checkpoint["store"])
        replay = FrameReplay()

        def replay_segment(
            handle: "io.BufferedReader | io.BytesIO",
        ) -> tuple[int, int, int, str | None]:
            # The WAL's opening walk of one segment, replaying as it reads.
            walk = replay_frames(self, handle, after_lsn=checkpoint_lsn)
            replay.replayed += walk.replayed
            replay.skipped += walk.skipped
            replay.decoded += walk.decoded
            return walk.records, walk.last_lsn, walk.end, walk.fault

        self.wal = WriteAheadLog(
            self.data_dir / _WAL_SUBDIR,
            segment_max_bytes=segment_max_bytes,
            fsync=fsync,
            fsync_interval_seconds=fsync_interval_seconds,
            disk=disk,
            lock=self._lock,
            reader=replay_segment,
            telemetry=self.telemetry,
        )
        if checkpoint is not None:
            # A checkpoint that reclaimed every segment leaves nothing
            # for the walk to number from; LSNs must still move forward.
            self.wal.advance_to(checkpoint_lsn)
        self.recovery = RecoveryReport(
            checkpoint_lsn=checkpoint_lsn,
            snapshot_samples=snapshot_samples,
            replayed_records=replay.replayed,
            skipped_records=replay.skipped,
            decoded_records=replay.decoded,
            torn_records=self.wal.scan.torn_records,
            last_lsn=self.wal.last_lsn,
            segments=self.wal.scan.segments,
            bytes=self.wal.scan.bytes,
            seconds=SYSTEM_CLOCK.monotonic() - began,
        )
        self._journalling = True
        # The recovery span, on the clock the report is read on.
        seconds = self.recovery.seconds
        self.telemetry.observe("durability.recovery", round(seconds * 1e9))
        logger.info(
            "recovered data_dir=%s records=%d skipped=%d torn=%d segments=%d "
            "bytes=%d decoded=%d seconds=%.3f",
            self.data_dir,
            self.recovery.replayed_records,
            self.recovery.skipped_records,
            self.recovery.torn_records,
            self.recovery.segments,
            self.recovery.bytes,
            self.recovery.decoded_records,
            self.recovery.seconds,
        )

    # ------------------------------------------------------------------
    # Journaled mutations
    # ------------------------------------------------------------------
    def _journal(
        self,
        entries: Iterable[tuple[MetricKey, int, float]],
        errors: Sequence[str | None],
        bodies: Sequence[bytes] | None,
    ) -> None:
        """Append a batch's accepted entries to the log as one group
        commit (at most one fsync under ``fsync="always"``).

        Every mutation but ``clear`` lands here — ``write``,
        ``write_many``, ``POST /metrics/write``, the simulator's minutes
        (keyed or prepared) and :meth:`ingest_frames` — under the lock
        the batch was applied in, so the log's order is the store's.
        ``bodies`` (the client's own record bytes, the very ones
        :meth:`ingest_frames` validated) is appended verbatim modulo the
        spliced LSN prefix; without it each record is rendered from its
        series' cached template.  A batch of one finite sample without
        a body — every :meth:`write` — is one format pass straight into
        the log (:meth:`WriteAheadLog.append_template`), because the
        cost of a durable ``write`` over an in-memory one is a
        benchmarked gate (``bench_wal_overhead``).  Rejected entries
        are never journaled, and nothing is until recovery has ended.
        """
        if not self._journalling:
            return
        if bodies is None and errors == [None]:
            (key, timestamp, value), = entries
            if type(value) is not float:
                value = float(value)
            if math.isfinite(value):
                template = self._series[key].journal_template
                self.wal.append_template(
                    template or self._template(key), int(timestamp), value
                )
            else:
                self.wal.append_bodies((self._body(key, timestamp, value),))
            return
        accepted = [
            self._body(*entry) if bodies is None else bodies[idx]
            for idx, (entry, error) in enumerate(zip(entries, errors))
            if error is None
        ]
        if accepted:
            self.wal.append_bodies(accepted)

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

        The store lock is held for apply + journal only — long enough
        to read the range the group was issued; validation ran before,
        without it, so a large group does not stall readers for the
        time it takes to check it.
        """
        with self._lock:
            result = super()._apply_frames(payloads, samples, rejected)
            if result["acked"] and self._journalling:
                result["last_lsn"] = self.wal.last_lsn
                result["first_lsn"] = self.wal.last_lsn - result["acked"] + 1
        return result

    def clear(self) -> None:
        """Drop every stored series (journaled)."""
        with self._lock:
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
        with self._lock:
            return encode_store_state(self), self.wal.last_lsn

    def flush(self) -> None:
        """Force journaled writes to disk regardless of fsync policy."""
        with self._lock:
            self.wal.flush()

    def close(self) -> None:
        """Flush and close the write-ahead log."""
        with self._lock:
            self.wal.close()

    def __enter__(self) -> "DurableMetricsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
