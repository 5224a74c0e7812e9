"""An append-only write-ahead log with CRC-framed records.

The log is a directory of segment files named ``wal-<first_lsn>.log``.
Each record is framed as::

    u32 payload_length | u32 crc32(payload) | payload (UTF-8 JSON)

(little-endian header).  Records carry a monotonically increasing log
sequence number (LSN) inside the payload; segments are rotated at a
configurable size so checkpoints can reclaim space by deleting whole
files rather than rewriting them.

Durability is governed by the fsync policy:

``always``
    ``fsync`` after every append — an acknowledged record survives
    ``kill -9`` (the crash-recovery harness runs in this mode).
``interval``
    ``fsync`` at most once per ``fsync_interval_seconds``; a crash can
    lose the unsynced suffix but never an earlier record.
``never``
    Leave flushing to the OS (benchmarks and tests).

Under ``interval`` and ``never``, appends are group-committed: framed
records buffer in memory and hit the file in batches (on the fsync
tick, on ``flush()``/``replay()``/``rotate()``, or when the buffer
tops 256 KB).  That keeps the per-append cost near a list append
without widening the policies' loss window.

Replay tolerates a *torn tail*: a crash mid-append leaves a truncated or
CRC-broken final record, which is skipped (and counted) rather than
aborting recovery.  Corruption anywhere else — a bad frame followed by
more data, or any damage in a non-final segment — is a real integrity
failure and raises :class:`~repro.errors.DurabilityError`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import struct
import threading
import zlib
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO

from repro.clock import SYSTEM_CLOCK
from repro.durability.disk import OS_DISK, Disk
from repro.errors import ApiError, DurabilityError
from repro.telemetry import Telemetry

__all__ = [
    "FSYNC_ALWAYS",
    "FSYNC_INTERVAL",
    "FSYNC_NEVER",
    "FSYNC_POLICIES",
    "WalScan",
    "WriteAheadLog",
    "frame_windows",
    "malformed_frame",
    "read_segment_records",
    "record_lsn",
    "scan_segment",
]

FSYNC_ALWAYS = "always"
FSYNC_INTERVAL = "interval"
FSYNC_NEVER = "never"
FSYNC_POLICIES = (FSYNC_ALWAYS, FSYNC_INTERVAL, FSYNC_NEVER)

_HEADER = struct.Struct("<II")
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"
#: Frames larger than this are treated as corruption, not allocation
#: requests — a torn length word must not make replay try to read 4 GB.
_MAX_RECORD_BYTES = 64 * 1024 * 1024
#: How the frame decoder reads: blocks of this many bytes, JSON-decoded
#: in windows of at most this many frames — what bounds the memory of a
#: scan, replay or ``write_batch`` decode, whatever the segment size.
#: (Recovery time is flat from 32 to 1024 frames a window; the decoded
#: records a window holds at once are not.)
_BLOCK_BYTES = 256 * 1024
_WINDOW_FRAMES = 256
_NOT_JSON = "payload is not JSON"


@dataclass(frozen=True)
class WalScan:
    """What a segment scan found: the recoverable extent of the log."""

    last_lsn: int
    torn_records: int
    segments: int
    records: int
    bytes: int


def _segment_path(directory: Path, first_lsn: int) -> Path:
    return directory / f"{_SEGMENT_PREFIX}{first_lsn:016d}{_SEGMENT_SUFFIX}"


def _segment_first_lsn(path: Path) -> int:
    stem = path.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        raise DurabilityError(f"not a WAL segment name: {path}") from None


def _split_frames(buf: bytes) -> tuple[list[bytes], int, int, str | None]:
    """Walk the whole CRC-valid frames at the start of ``buf``.

    Returns ``(payloads, used, want, fault)``: the frames' payloads, the
    bytes they occupy, and — when the walk stops before the end of the
    buffer — why the frame at ``used`` is not whole.  ``want`` is how
    many bytes that frame needs in all when more bytes could still make
    it whole (a short header or payload); 0 for damage no further byte
    repairs (an over-long length word, a CRC mismatch).  The one place a
    frame header is unpacked for reading, on disk and on the wire.
    """
    payloads: list[bytes] = []
    append = payloads.append
    offset, total = 0, len(buf)
    unpack, crc32, header = _HEADER.unpack_from, zlib.crc32, _HEADER.size
    while offset < total:
        try:
            length, crc = unpack(buf, offset)
        except struct.error:  # fewer than a header's bytes left
            return payloads, offset, header, (
                f"truncated header ({total - offset} of {header} bytes)"
            )
        start = offset + header
        if length > _MAX_RECORD_BYTES:
            return payloads, offset, 0, (
                f"frame length {length} exceeds {_MAX_RECORD_BYTES}"
            )
        end = start + length
        if end > total:
            return payloads, offset, header + length, (
                f"truncated payload ({total - start} of {length} bytes)"
            )
        payload = buf[start:end]
        if crc32(payload) != crc:
            return payloads, offset, 0, "crc32 mismatch"
        append(payload)
        offset = end
    return payloads, offset, 0, None


def _decode_window(
    payloads: Sequence[bytes],
) -> tuple[list[Any], Exception | None]:
    """JSON-decode a window of payloads: ``(records, error)``.

    ``records`` are the values of the leading payloads that decode;
    ``error`` is what ``json.loads(payload.decode("utf8"))`` raises on
    the first that does not (``None`` when all do).  The window is
    decoded by one ``json.loads`` over the payloads joined into an array
    when that provably equals decoding each alone — every payload is
    ``{...}`` with no newline and no ``[`` in it.  A string cannot then
    run across a joint (a raw newline ends it in error), nothing but
    objects nest inside a payload, and an object left open at a joint
    would meet ``,{`` where it needs a key — so each payload contributes
    whole values, and a count equal to the window's means one each.
    Anything else (a scalar, a list, padding, a splice) takes the
    per-payload loop.
    """
    count = len(payloads)
    blob = b",\n".join(payloads)
    if (
        blob[:1] == b"{"
        and blob[-1:] == b"}"
        and blob.count(b"\n") == count - 1
        and blob.count(b"},\n{") == count - 1
        and b"[" not in blob
    ):
        try:
            records = json.loads("[%s]" % blob.decode("utf8"))
        except (ValueError, RecursionError):
            pass
        else:
            if len(records) == count:
                return records, None
    records = []
    for payload in payloads:
        try:
            records.append(json.loads(payload.decode("utf8")))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            return records, exc
    return records, None


def frame_windows(
    handle: "io.BufferedReader | io.BytesIO",
    offset: int = 0,
    decode: bool = True,
) -> Iterator[tuple[list[bytes], list[Any] | None, int, str | None]]:
    """The one frame decoder: walk a frame stream a bounded window at a time.

    Reads ``handle`` from ``offset`` in blocks of :data:`_BLOCK_BYTES`
    (more only for a single frame larger than that) and yields
    ``(payloads, records, offset, fault)`` per window of at most
    :data:`_WINDOW_FRAMES` whole frames: the payload bytes, their
    decoded JSON values (``None`` under ``decode=False``, the CRC-only
    walk) and the byte offset of the window's first frame.  The last
    item is always a terminator with no frames whose ``offset`` is where
    the walk stopped and whose ``fault`` says why — ``None`` at a clean
    end of data, else the defect of the frame at that offset (short,
    over-long, CRC-broken, or not JSON).  Tolerant callers (segment
    replay, the follower) resume or truncate at that offset; the strict
    one (``write_batch``) turns the fault into a 400.  Memory is bounded
    by the block and the window, never by the stream.
    """
    handle.seek(offset)
    buf, want, fault = b"", 0, None
    while True:
        block = handle.read(max(_BLOCK_BYTES, want - len(buf)))
        if not block:
            break
        buf += block
        payloads, used, want, fault = _split_frames(buf)
        buf = buf[used:]
        for first in range(0, len(payloads), _WINDOW_FRAMES):
            window = payloads[first : first + _WINDOW_FRAMES]
            records, error = _decode_window(window) if decode else (None, None)
            if error is not None:
                window = window[: len(records)]
            if window:
                yield window, records, offset, None
                offset += sum(map(len, window)) + _HEADER.size * len(window)
            if error is not None:
                yield [], [], offset, f"{_NOT_JSON} ({error})"
                return
        if fault is not None and not want:
            break
    yield [], [], offset, fault


def malformed_frame(index: int, offset: int, fault: str) -> ApiError:
    """The strict readers' verdict on a request body: the 400 naming
    the frame (its index and byte offset) that ``fault`` stopped at."""
    return ApiError(
        f"malformed frame {index} at byte {offset}: {fault}",
        status=400,
        payload={"frame": index, "offset": offset},
    )


def read_segment_records(
    source: "str | Path | io.BufferedReader",
    start_offset: int = 0,
) -> Iterator[tuple[dict[str, Any], int]]:
    """Yield ``(record, end_offset)`` for each whole frame in a segment.

    The tolerant reading of :func:`frame_windows`: parsing stops
    silently at the first incomplete, CRC-broken or undecodable frame (a
    torn tail, or bytes that simply have not arrived yet);
    ``end_offset`` is where the next parse attempt should resume.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            yield from read_segment_records(handle, start_offset)
            return
    for payloads, records, end, _ in frame_windows(source, start_offset):
        for payload, record in zip(payloads, records):
            end += _HEADER.size + len(payload)
            yield record, end


def record_lsn(record: Any) -> int:
    """A decoded record's LSN; 0 when it carries no integer one."""
    lsn = record.get("lsn") if isinstance(record, dict) else None
    return lsn if type(lsn) is int else 0


def scan_segment(
    handle: "io.BufferedReader | io.BytesIO",
) -> tuple[int, int, int, str | None]:
    """CRC-walk one segment: ``(records, last_lsn, valid_end, fault)``.

    Counts the whole frames and decodes only the last one, for its LSN
    (0 when the segment holds no record that carries one) — what
    :func:`~repro.durability.recovery.peek_recoverable_lsn` and the
    opening walk of a log that nothing replays need.
    """
    records, last = 0, None
    for payloads, _, valid_end, fault in frame_windows(handle, decode=False):
        if payloads:
            records += len(payloads)
            last = payloads[-1]
    decoded = _decode_window([last])[0] if last is not None else []
    return records, record_lsn(decoded[0] if decoded else None), valid_end, fault


class WriteAheadLog:
    """Append-only segmented log of JSON records.

    Parameters
    ----------
    directory:
        Where segment files live; created if missing.
    segment_max_bytes:
        Rotate to a new segment once the active one exceeds this size.
    fsync:
        One of :data:`FSYNC_POLICIES` (see module docstring).
    fsync_interval_seconds:
        Minimum spacing of fsyncs under the ``interval`` policy.
    disk:
        Every file operation goes through it (:mod:`repro.durability.disk`);
        the operating system's unless a test models one.
    lock:
        Optional re-entrant lock to use as the internal state lock.  A
        caller that already serialises its own writes can share its lock
        so the append path pays a re-entrant acquire (an owner check)
        instead of a second full lock round-trip.
    reader:
        How the opening walk reads one segment: ``reader(handle)``
        returns ``(records, last_lsn, valid_end, fault)`` as
        :func:`scan_segment` (the default) does.  The durable store
        passes one that replays the segment as it reads it, so an open
        walks each byte once.
    telemetry:
        Where each fsync is timed (the ``wal.fsync`` span).
    """

    def __init__(
        self,
        directory: str | Path,
        segment_max_bytes: int = 4 * 1024 * 1024,
        fsync: str = FSYNC_INTERVAL,
        fsync_interval_seconds: float = 0.05,
        disk: Disk = OS_DISK,
        lock: Any | None = None,
        reader: Callable[[Any], tuple[int, int, int, str | None]] = scan_segment,
        telemetry: Telemetry | None = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise DurabilityError(
                f"unknown fsync policy {fsync!r}; known: {FSYNC_POLICIES}"
            )
        if segment_max_bytes < 1024:
            raise DurabilityError("segment_max_bytes must be >= 1024")
        self.directory = Path(directory)
        self.disk = disk
        disk.makedirs(self.directory)
        self.segment_max_bytes = segment_max_bytes
        self.fsync_policy = fsync
        self.fsync_interval_seconds = fsync_interval_seconds
        self._sync_always = fsync == FSYNC_ALWAYS
        # Group commit: under the interval/never policies framed records
        # buffer here and hit the file in batches.  The loss window is
        # unchanged (flush()/the fsync tick drain first), but the hot
        # append path drops to a list.append.
        self._pending: list[bytes] = []
        self._pending_bytes = 0
        self._pending_first_lsn = 0
        self._group_max_bytes = min(segment_max_bytes, 256 * 1024)
        # Internal state lock (re-entrant: flush → drain → rotate nest).
        # _fd_lock serialises fsync against handle close so the interval
        # flusher can fsync *outside* _mutex — appends never stall
        # behind the disk.
        self._mutex = lock if lock is not None else threading.RLock()
        self._fd_lock = threading.Lock()
        self._flusher: threading.Thread | None = None
        self._flusher_stop = threading.Event()
        self._handle: BinaryIO | None = None
        self._active_bytes = 0
        self._unsynced = False
        self._failed: str | None = None
        self.appended = 0
        self.fsyncs = 0
        self.telemetry = telemetry or Telemetry()
        self._scan = self._scan_segments(reader)
        self._next_lsn = self._scan.last_lsn + 1
        if fsync == FSYNC_INTERVAL:
            # The fsync tick runs on this thread, off the append path:
            # a slow disk delays durability (within the interval
            # contract) instead of stalling writers.
            self._flusher = threading.Thread(
                target=self._flush_loop, name="wal-flusher", daemon=True
            )
            self._flusher.start()

    # ------------------------------------------------------------------
    # Reading back
    # ------------------------------------------------------------------
    def _segment_paths(self) -> list[Path]:
        paths = [
            self.directory / name
            for name in self.disk.listdir(self.directory)
            if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
        ]
        return sorted(paths, key=_segment_first_lsn)

    def _scan_segments(
        self, reader: Callable[[Any], tuple[int, int, int, str | None]]
    ) -> WalScan:
        """Walk every segment with ``reader``, truncating a torn tail on
        the last one."""
        last_lsn = torn = records = total = 0
        paths = self._segment_paths()
        for path in paths:
            with self.disk.open_read(path) as handle:
                count, lsn, valid_end, fault = reader(handle)
            records += count
            last_lsn = lsn or last_lsn
            total += valid_end
            if fault is None:
                continue
            if fault.startswith(_NOT_JSON):
                # Written that way, not torn: replaying past it would
                # lose whatever follows.
                raise DurabilityError(
                    f"WAL segment {path} is corrupt at offset {valid_end}: "
                    f"{fault}"
                )
            # A frame failed to parse.  Torn-tail tolerance only covers
            # the *end of the log*: the final segment, with nothing but
            # the damaged bytes after the last whole record.
            if path != paths[-1]:
                raise DurabilityError(
                    f"WAL segment {path} is corrupt at offset {valid_end} "
                    "and is not the final segment; refusing to replay past it"
                )
            torn = 1
            # Cut the file back to the last whole record so appends
            # resume at a clean frame boundary.
            self.disk.truncate(path, valid_end)
        if paths:
            # Only the last segment can hold bytes a crashed process left
            # in the page cache unsynced (rotation syncs the others), and
            # the cut above is not durable either: sync it before anything
            # is built on what was just read from it.  Left to a later
            # rotation, a power loss could tear it once it is no longer
            # the last.
            with self.disk.open_append(paths[-1]) as handle:
                self.disk.sync(handle)
        return WalScan(last_lsn, torn, len(paths), records, total)

    def replay(self, after_lsn: int = 0) -> Iterator[dict[str, Any]]:
        """Yield every recoverable record with ``lsn > after_lsn``.

        The torn tail (if any) was already truncated by the opening
        scan, which checked CRCs but decoded nothing, so this is the one
        JSON decode of the log.  A CRC-valid frame that does not decode
        was written that way, not torn: replaying past it would lose
        whatever follows, so it raises.  A decoded value that is not an
        object has no LSN to filter on and is yielded for the consumer
        to skip and count.
        """
        # Surface buffered (not-yet-fsynced) appends to this reader;
        # durability is still governed by the fsync policy.
        with self._mutex:
            if self._pending:
                self._drain()
            if self._handle is not None:
                self._handle.flush()
        for path in self._segment_paths():
            with self.disk.open_read(path) as handle:
                for _, records, offset, fault in frame_windows(handle):
                    if fault is not None and fault.startswith(_NOT_JSON):
                        raise DurabilityError(
                            f"WAL segment {path} is corrupt at offset "
                            f"{offset}: {fault}"
                        )
                    for record in records:
                        if (
                            not isinstance(record, dict)
                            or record_lsn(record) > after_lsn
                        ):
                            yield record

    @property
    def scan(self) -> WalScan:
        """What the opening walk found (torn records, extent)."""
        return self._scan

    def segments(self) -> list[Path]:
        """Every segment file in LSN order (the last one is active)."""
        with self._mutex:
            return self._segment_paths()

    @property
    def last_lsn(self) -> int:
        """The LSN of the most recently appended (or recovered) record."""
        return self._next_lsn - 1

    @property
    def failed(self) -> str | None:
        """Why the log is permanently failed, or ``None`` while healthy.

        A failed log refuses every further append until the data
        directory is reopened; supervised shard workers watch this and
        exit so their manager can respawn (or promote) them.
        """
        return self._failed

    def advance_to(self, lsn: int) -> None:
        """Never issue an LSN at or below ``lsn``.

        A checkpoint that subsumes every segment leaves the directory
        empty, so a reopened log would otherwise restart numbering at 1
        — below the checkpoint's ``last_lsn`` — and recovery would skip
        the new records as already snapshotted.  The store calls this
        with the checkpoint LSN before journalling resumes.
        """
        with self._mutex:
            self._next_lsn = max(self._next_lsn, lsn + 1)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, record: dict[str, Any]) -> int:
        """Frame, write and (per policy) sync one record; returns its LSN."""
        body = json.dumps(record, separators=(",", ":")).encode("utf8")
        return self.append_bodies((body,))

    def append_body(self, body: str) -> int:
        """``append_bodies`` of one text body; kept for the frozen
        ``benchmarks/ledger`` finding test, goes at its re-baseline."""
        return self.append_bodies((body.encode("utf8"),))

    def append_bodies(self, bodies: Sequence[bytes]) -> int:
        """Append many pre-rendered bodies as one commit group.

        Each element of ``bodies`` is a compact JSON object (UTF-8
        bytes) *without* an LSN; the LSN prefix is spliced per frame, so
        client-encoded frames hit the log without re-serialization or a
        text round trip.  The whole batch is enqueued under a
        single lock acquisition and issued contiguous LSNs; under
        ``fsync=always`` the batch is synced with **one** ``fsync`` at
        the end instead of one per record — the group-commit amortisation
        the batched ingest path is gated on.  Returns the first LSN (the
        last is ``first + len(bodies) - 1``).
        """
        with self._mutex:
            if self._failed:
                self._refuse()
            first = lsn = self._next_lsn
            # The group's state lives in locals until it is drained or done.
            pending, size = self._pending, self._pending_bytes
            if not pending:
                self._pending_first_lsn = lsn
            drain_at = math.inf if self._sync_always else self._group_max_bytes
            pack, crc32 = _HEADER.pack, zlib.crc32
            for body in bodies:
                if body == b"{}":
                    payload = b'{"lsn":%d}' % lsn
                else:
                    payload = b'{"lsn":%d,%b' % (lsn, body[1:])
                frame = pack(len(payload), crc32(payload)) + payload
                pending.append(frame)
                size += len(frame)
                lsn += 1
                if size >= drain_at:
                    # Keep the LSN counter coherent mid-batch: _drain
                    # names fresh segments from it.
                    self._next_lsn, self._pending_bytes = lsn, size
                    self._drain()
                    pending, size = self._pending, 0
                    self._pending_first_lsn = lsn
            self._pending_bytes = size
            count = lsn - first
            self._next_lsn = lsn
            self.appended += count
            if count and self._sync_always:
                self.flush()
            elif size >= self._group_max_bytes:
                self._drain()
            return first

    def append_template(self, template: bytes, *args: Any) -> int:
        """Append via a cached ``%``-format template; returns the LSN.

        ``template`` must render to a compact JSON object, with the
        LSN as its *first* placeholder followed by one placeholder per
        element of ``args``.  The durable store's journal hook caches one
        per series and calls this for a batch of one finite sample with
        no client body (every ``write``), so the whole payload is
        rendered by a single format pass here — no intermediate body
        string, no splice.
        This is the per-sample hot path: it stays flat (no helper calls,
        locals over attributes) because its overhead versus a plain
        in-memory write is a benchmarked gate (``bench_wal_overhead``).
        """
        with self._mutex:
            if self._failed:
                self._refuse()
            lsn = self._next_lsn
            payload = template % (lsn, *args)
            frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
            if not self._pending:
                self._pending_first_lsn = lsn
            self._pending.append(frame)
            self._pending_bytes += len(frame)
            self._next_lsn = lsn + 1
            self.appended += 1
            if self._sync_always:
                self.flush()
            elif self._pending_bytes >= self._group_max_bytes:
                self._drain()
            return lsn

    def _refuse(self) -> None:
        raise DurabilityError(
            f"write-ahead log is failed ({self._failed}); "
            "reopen the data directory to recover"
        )

    def _drain(self) -> None:
        """Write buffered frames to the active segment (no fsync).

        Any disk error on the way — opening a segment, syncing its
        directory entry, the write itself — fails the log: frames of this
        group may or may not have landed, so nothing after them may be
        acknowledged.
        """
        frames = self._pending
        if not frames:
            return
        first_lsn = self._pending_first_lsn
        self._pending = []
        self._pending_bytes = 0
        total = sum(map(len, frames))
        try:
            handle = self._handle or self._handle_for(total, first_lsn)
            if (
                self._active_bytes + total <= self.segment_max_bytes
                or self._active_bytes == 0
            ):
                handle.write(b"".join(frames))
                self._active_bytes += total
                self._unsynced = True
                return
            # Rotation boundaries inside the batch: frame by frame.
            for offset, frame in enumerate(frames):
                self._handle_for(len(frame), first_lsn + offset).write(frame)
                self._active_bytes += len(frame)
                # Marked per write, not by the append: opening a segment
                # for the next frame syncs this one (rotate -> flush), and
                # that sync must not count as having synced the frames
                # written after it.
                self._unsynced = True
        except OSError as exc:
            self._failed = f"append failed: {exc}"
            raise DurabilityError(f"WAL append failed: {exc}") from exc

    def _handle_for(self, frame_bytes: int, first_lsn: int) -> BinaryIO:
        """The active segment handle, rotating when over the size bound.

        ``first_lsn`` names a fresh segment after the first record that
        will land in it (drains carry records appended earlier than
        ``_next_lsn`` says).
        """
        if (
            self._handle is not None
            and self._active_bytes + frame_bytes > self.segment_max_bytes
            and self._active_bytes > 0
        ):
            self.rotate()
        if self._handle is None:
            disk = self.disk
            path = _segment_path(self.directory, first_lsn)
            existing = self._segment_paths()
            if existing and _segment_first_lsn(existing[-1]) < first_lsn:
                last = existing[-1]
                if disk.size(last) + frame_bytes <= self.segment_max_bytes:
                    path = last  # resume the recovered tail segment
            self._handle = disk.open_append(path)
            self._active_bytes = disk.size(path)
            disk.sync_directory(self.directory)
        return self._handle

    def flush(self) -> None:
        """Force buffered appends to disk (fsync).

        An error from the flush or the sync fails the log for good, as
        it does on the fsync tick: the kernel may already have dropped
        the pages a failed fsync covered, and a retried one can report
        success for them, so nothing since the last good sync may ever
        be acknowledged.
        """
        with self._mutex:
            if self._failed:
                self._refuse()
            if self._pending:
                self._drain()
            if self._handle is None or not self._unsynced:
                return
            try:
                self._handle.flush()
                with self._fd_lock, self.telemetry.span("wal.fsync"):
                    self.disk.sync(self._handle)
            except OSError as exc:
                self._failed = f"flush failed: {exc}"
                raise DurabilityError(f"WAL flush failed: {exc}") from exc
            self.fsyncs += 1
            self._unsynced = False

    def _flush_loop(self) -> None:
        """Interval policy's fsync tick, run off the append path.

        State changes happen under ``_mutex``; the fsync itself happens
        outside it (guarded only by ``_fd_lock`` against a concurrent
        segment close) so a slow disk delays durability rather than
        blocking appenders.
        """
        while not SYSTEM_CLOCK.wait(
            self._flusher_stop, self.fsync_interval_seconds
        ):
            with self._mutex:
                if self._failed:
                    return
                if not self._pending and not self._unsynced:
                    continue
                try:
                    self._drain()
                except DurabilityError:
                    return
                handle = self._handle
                if handle is None:
                    continue
                try:
                    handle.flush()
                except OSError as exc:
                    self._failed = f"flush failed: {exc}"
                    return
                self._unsynced = False
            try:
                with self._fd_lock, self.telemetry.span("wal.fsync"):
                    self.disk.sync(handle)
                self.fsyncs += 1
            except (OSError, ValueError) as exc:
                with self._mutex:
                    self._failed = f"fsync failed: {exc}"
                return

    def rotate(self) -> None:
        """Close the active segment; the next append opens a fresh one."""
        with self._mutex:
            if self._handle is None and not self._pending:
                return
            self.flush()
            if self._handle is not None:
                with self._fd_lock:
                    self._handle.close()
                self._handle = None
            self._active_bytes = 0

    def prune_through(self, lsn: int) -> int:
        """Delete whole segments containing only records with ``<= lsn``.

        Call after a checkpoint: everything at or below the snapshot's
        LSN is reconstructable from the snapshot.  The active segment is
        rotated first so it can be reclaimed too.  Returns the number of
        segment files deleted.
        """
        with self._mutex:
            self.rotate()
            deleted = 0
            paths = self._segment_paths()
            for position, path in enumerate(paths):
                # A segment's records run from its first LSN up to the
                # next segment's first LSN (exclusive), or to last_lsn
                # for the final one.
                if position + 1 < len(paths):
                    segment_last = _segment_first_lsn(paths[position + 1]) - 1
                else:
                    segment_last = self.last_lsn
                if segment_last <= lsn:
                    self.disk.unlink(path)
                    deleted += 1
            if deleted:
                self.disk.sync_directory(self.directory)
            return deleted

    def close(self) -> None:
        """Flush and close the active segment; stops the fsync tick.

        Raises like :meth:`flush` when what was appended could not be
        made durable (the segment is closed all the same).
        """
        if self._flusher is not None:
            self._flusher_stop.set()
            self._flusher.join(timeout=5)
            self._flusher = None
        with self._mutex:
            try:
                self.flush()
            finally:
                if self._handle is not None:
                    # Frames still buffered here are a failed log's, which
                    # flush() has already raised for.
                    with self._fd_lock, contextlib.suppress(OSError):
                        self._handle.close()
                    self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
