"""The per-record frame reader and replay loop the chunked decoder replaced.

Kept as a test oracle only: one ``handle.read`` for the header, one for
the payload and one ``json.loads`` per frame, exactly as
``read_segment_records`` / ``decode_frames`` / ``apply_wal_records`` did
before the log was read in blocks.  The properties in
``test_frame_decoder.py`` and ``test_recovery_equivalence.py`` hold the
new decoder to these verdicts: same records, same offsets, same stop
reason, same recovered state.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from pathlib import Path
from typing import Any

from repro.durability.checkpoint import read_checkpoint
from repro.durability.codec import restore_store_state
from repro.timeseries.store import MetricKey, MetricsStore

HEADER = struct.Struct("<II")
MAX_FRAME_BYTES = 64 * 1024 * 1024
REPLAY_BATCH = 1024


def frame(payload: bytes, crc: int | None = None) -> bytes:
    """One frame around ``payload`` (``crc`` overrides the true checksum)."""
    return HEADER.pack(
        len(payload), zlib.crc32(payload) if crc is None else crc
    ) + payload


def walk(
    raw: bytes, start: int = 0
) -> tuple[list[tuple[Any, str, int]], int, str | None]:
    """Read frames one at a time from ``raw[start:]``.

    Returns ``(frames, end_offset, fault)``: ``(record, body, end)`` per
    whole frame, where reading stopped, and why (``None`` at a clean
    end) in the strict decoder's wording.
    """
    handle = io.BytesIO(raw)
    handle.seek(start)
    frames: list[tuple[Any, str, int]] = []
    offset = start
    while True:
        header = handle.read(HEADER.size)
        if not header:
            return frames, offset, None
        if len(header) < HEADER.size:
            return frames, offset, (
                f"truncated header ({len(header)} of {HEADER.size} bytes)"
            )
        length, crc = HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            return frames, offset, (
                f"frame length {length} exceeds {MAX_FRAME_BYTES}"
            )
        payload = handle.read(length)
        if len(payload) < length:
            return frames, offset, (
                f"truncated payload ({len(payload)} of {length} bytes)"
            )
        if zlib.crc32(payload) != crc:
            return frames, offset, "crc32 mismatch"
        try:
            body = payload.decode("utf8")
            record = json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return frames, offset, f"payload is not JSON ({exc})"
        offset = handle.tell()
        frames.append((record, body, offset))


def apply_records(store: MetricsStore, records) -> tuple[int, int]:
    """The replay loop as it was: a fresh ``MetricKey`` per sample."""
    replayed = skipped = 0
    entries: list[tuple[MetricKey, int, float]] = []

    def apply_pending() -> None:
        nonlocal replayed, skipped
        errors = MetricsStore.apply_sample_batch(store, entries)
        accepted = errors.count(None)
        replayed += accepted
        skipped += len(errors) - accepted
        entries.clear()

    for record in records:
        op = record.get("op")
        if op == "write":
            key = MetricKey.of(record["name"], record.get("tags") or None)
            entries.append((key, record["ts"], record["v"]))
            if len(entries) >= REPLAY_BATCH:
                apply_pending()
        elif op == "clear":
            apply_pending()
            MetricsStore.clear(store)
            replayed += 1
        else:
            skipped += 1
    apply_pending()
    return replayed, skipped


def recover(data_dir: Path) -> tuple[MetricsStore, dict[str, int]]:
    """Recover ``data_dir`` read-only, the way the parent did: scan every
    record of every segment, then read and replay them all again."""
    checkpoint = read_checkpoint(data_dir)
    store = MetricsStore(
        checkpoint.get("retention_seconds") if checkpoint else None
    )
    checkpoint_lsn = snapshot_samples = 0
    if checkpoint is not None:
        checkpoint_lsn = int(checkpoint.get("last_lsn", 0))
        snapshot_samples = restore_store_state(store, checkpoint["store"])
    last_lsn = torn = 0
    records: list[dict[str, Any]] = []
    paths = sorted((data_dir / "wal").glob("wal-*.log"))
    for path in paths:
        raw = path.read_bytes()
        frames, end, _ = walk(raw)
        for record, _, _ in frames:
            last_lsn = int(record.get("lsn", 0)) or last_lsn
        if end != len(raw):
            assert path == paths[-1], "corrupt non-final segment"
            torn = 1
        records.extend(
            record
            for record, _, _ in frames
            if int(record.get("lsn", 0)) > checkpoint_lsn
        )
    replayed, skipped = apply_records(store, records)
    return store, {
        "checkpoint_lsn": checkpoint_lsn,
        "snapshot_samples": snapshot_samples,
        "replayed_records": replayed,
        "skipped_records": skipped,
        "torn_records": torn,
        "last_lsn": max(last_lsn, checkpoint_lsn),
        "segments": len(paths),
    }
