"""Wire codec for the batched binary ingest path.

``POST /metrics/write_batch`` carries write records in exactly the WAL
codec's framing — ``u32 payload_length | u32 crc32(payload) | payload``
(little-endian, UTF-8 JSON payload) — so the client encodes each sample
once and the server appends the payload bytes to the write-ahead log
verbatim, modulo the spliced server-assigned LSN prefix.  No field is
re-serialized between the client and the segment file.

Both sides walk frames with the one decoder,
:func:`repro.durability.wal.frame_windows`.  Segment readers are its
tolerant callers (a crash mid-append is expected on disk, so they stop
at a torn final frame); the wire's are strict: an HTTP body is either a
complete frame sequence or a client bug, so any short, oversized,
CRC-broken or non-JSON frame rejects the whole request with a
structured 400 naming the frame index and byte offset.  The listener
runs the framing walk alone (:func:`split_frames`) and hands the payload
bytes to the store, which decodes only what it has not seen before and
raises the same 400 for a payload that is not JSON;
:func:`decode_frames` does both at once for callers that want records.

The cluster tier regroups a batch by ring owner on the way in and merges
the owners' acks on the way out.  The router and the shard-aware client
both do it, so it lives here once: :func:`routing_key`,
:func:`keyed_frames`, :func:`split_by_owner`, :func:`merge_owner_acks`.
"""

from __future__ import annotations

import io
import struct
import zlib
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

from repro.durability.wal import frame_windows, malformed_frame
from repro.errors import ApiError
from repro.timeseries.store import write_head, write_record

__all__ = [
    "FRAMES_CONTENT_TYPE",
    "STREAM_CONTENT_TYPE",
    "decode_frames",
    "encode_frame",
    "encode_frames",
    "frame_bytes",
    "keyed_frames",
    "merge_owner_acks",
    "merge_stream_lines",
    "rebase_refused",
    "routing_key",
    "split_by_owner",
    "split_frames",
]

# The request body: WAL-framed records, appended to the log verbatim.
FRAMES_CONTENT_TYPE = "application/x-caladrius-frames"
# The streaming response: one JSON object per line, a ``{"commit": ...}``
# line per group commit and a final ``{"done": true, ...}`` summary.
STREAM_CONTENT_TYPE = "application/x-ndjson"

# Mirrors repro.durability.wal — one codec, framed here by the client
# and there by the log.  struct format "<II" = little-endian (length, crc32).
_HEADER = struct.Struct("<II")


#: Rendered record heads by ``(name, tag items as given)``: a writer names
#: the same series every minute, so its head is rendered once.  A cache,
#: emptied when it reaches this many entries.
_HEAD_MEMO_MAX = 1 << 16
_head_memo: dict[tuple[str, tuple], bytes] = {}


def encode_frame(
    name: str,
    timestamp: int,
    value: float,
    tags: Mapping[str, str] | None = None,
) -> bytes:
    """Frame one write record exactly as the WAL will store it.

    The payload is compact JSON with the fields in the WAL's journal
    order (``op``, ``name``, ``tags``, ``ts``, ``v``) and no ``lsn`` —
    the server splices its assigned LSN in front when appending.  Byte
    for byte ``json.dumps`` of the record: the head (everything through
    ``"ts":``) comes from the one renderer, memoised per series when the
    name and every tag key and value are exactly ``str``; the tail is
    the integer and ``repr`` of the float, which is what ``json.dumps``
    writes (and its ``Infinity``/``NaN`` when the value is not finite).
    """
    try:
        key = (name, tuple(tags.items()) if tags else ())
        head = _head_memo.get(key)
    except (AttributeError, TypeError):  # tags not a mapping / unhashable
        key = head = None
    if head is None:
        tags = dict(tags) if tags else {}
    timestamp, value = int(timestamp), float(value)
    if head is None:
        head = write_head(name, tags)
        if key is not None and type(name) is str and all(
            type(k) is str and type(v) is str for k, v in key[1]
        ):
            if len(_head_memo) >= _HEAD_MEMO_MAX:
                _head_memo.clear()
            _head_memo[key] = head
    payload = write_record(head, timestamp, value)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def encode_frames(
    entries: Iterable[tuple[str, int, float, Mapping[str, str] | None]],
) -> bytes:
    """Frame ``(name, ts, value, tags)`` entries into one request body."""
    return b"".join(
        encode_frame(name, timestamp, value, tags)
        for name, timestamp, value, tags in entries
    )


def frame_bytes(body: str) -> bytes:
    """Re-frame a decoded payload string, byte-identical to the original.

    :func:`keyed_frames` regroups a mixed batch into per-shard
    sub-batches; since the payload bytes are untouched, re-framing them
    reproduces the client's frames exactly — the no-re-serialization
    guarantee survives the extra hop.
    """
    payload = body.encode("utf8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_frames(raw: bytes) -> list[tuple[Any, str]]:
    """Strictly decode a request body into ``(record, body)`` per frame.

    ``record`` is the parsed JSON value and ``body`` the exact payload
    string the client framed.  Raises :class:`~repro.errors.ApiError`
    (400) on any malformed frame; the payload names the frame index and
    byte offset so a client can find the bug in its encoder.
    """
    frames: list[tuple[Any, str]] = []
    for payloads, records, offset, fault in frame_windows(io.BytesIO(raw)):
        if fault is not None:
            raise malformed_frame(len(frames), offset, fault)
        frames.extend(zip(records, [str(p, "utf8") for p in payloads]))
    return frames


def split_frames(raw: bytes) -> tuple[list[bytes], ApiError | None]:
    """The strict framing walk alone: ``(payloads, fault)``.

    Lengths and CRCs are checked, nothing is JSON-decoded — cheap enough
    for the listener's event loop.  ``payloads`` are the whole frames'
    payload bytes and ``fault`` the 400 for the first frame that is
    short, over-long or CRC-broken (``None`` for a clean body).  It is
    returned, not raised, because an earlier payload that is not JSON
    outranks it: the caller has the store check ``payloads`` first.
    """
    payloads: list[bytes] = []
    for window, _, offset, fault in frame_windows(io.BytesIO(raw), decode=False):
        payloads.extend(window)
    if fault is None:
        return payloads, None
    return payloads, malformed_frame(len(payloads), offset, fault)


def routing_key(name: Any, tags: Any) -> str:
    """The ring key of a series: its ``topology`` tag, else its name.

    Untagged series hash on the metric name — stable, spreads load, and
    reads route the same way.  ``""`` when there is neither.  The router
    and the shard-aware client both place series with this, which is
    what lets the client skip the router.
    """
    topology = tags.get("topology") if isinstance(tags, Mapping) else None
    return str(topology or name or "")


def keyed_frames(raw: bytes) -> list[tuple[str, bytes]]:
    """Strictly decode a request body into ``(routing key, frame)`` pairs.

    The frames are re-framed from the untouched payload strings
    (:func:`frame_bytes`), so regrouping them re-serializes nothing.
    """
    return [
        (
            routing_key(record.get("name"), record.get("tags"))
            if isinstance(record, dict)
            else "",
            frame_bytes(body),
        )
        for record, body in decode_frames(raw)
    ]


def split_by_owner(
    frames: Iterable[tuple[str, bytes]], shard_for: Callable[[str], int]
) -> dict[int, tuple[list[int], bytes]]:
    """Regroup ``(routing key, frame)`` pairs by ring owner.

    Returns ``{owner: (parent indexes, sub-batch body)}`` in owner
    order; ``indexes[i]`` is the position in the parent batch of the
    sub-batch's ``i``-th frame, which :func:`merge_owner_acks` uses to
    rebase the owner's answer.
    """
    groups: dict[int, tuple[list[int], list[bytes]]] = {}
    for index, (key, frame) in enumerate(frames):
        indexes, parts = groups.setdefault(shard_for(key), ([], []))
        indexes.append(index)
        parts.append(frame)
    return {
        owner: (indexes, b"".join(parts))
        for owner, (indexes, parts) in sorted(groups.items())
    }


def merge_owner_acks(
    frames: int,
    groups: Mapping[int, tuple[Sequence[int], bytes]],
    outcomes: Mapping[int, tuple[int, Mapping[str, Any]]],
) -> dict[str, Any]:
    """Merge per-owner ``(status, payload)`` answers into one batch ack.

    ``groups`` is :func:`split_by_owner`'s result.  A 200 owner's
    ``acked`` is summed, its ``rejected`` frames and both ``refused``
    shapes are rebased onto the parent batch and its streamed
    ``commits`` tagged with the shard; any other status refuses that
    owner's whole sub-batch, retryably, without touching the others'
    acks.  LSNs are per shard, so the top-level pair is set only when
    one shard owned the batch; ``per_shard`` always has each owner's.
    """
    acked = 0
    rejected: list[dict[str, Any]] = []
    refused: list[dict[str, Any]] = []
    commits: list[dict[str, Any]] = []
    per_shard: dict[str, dict[str, Any]] = {}
    for shard_id, (indexes, _) in groups.items():
        status, payload = outcomes[shard_id]
        per_shard[str(shard_id)] = {
            "status": status,
            "frames": len(indexes),
            "acked": payload.get("acked", 0) if status == 200 else 0,
            "first_lsn": payload.get("first_lsn"),
            "last_lsn": payload.get("last_lsn"),
        }
        if status != 200:
            refused.append(
                {
                    "frames": list(indexes),
                    "shard_id": shard_id,
                    "status": status,
                    "error": payload.get("error", f"HTTP {status}"),
                    "retry_after": payload.get("retry_after"),
                }
            )
            continue
        acked += payload.get("acked", 0)
        for entry in payload.get("rejected", ()):
            entry = dict(entry)
            frame = entry.get("frame")
            if isinstance(frame, int) and 0 <= frame < len(indexes):
                entry["frame"] = indexes[frame]
            rejected.append(entry)
        refused.extend(
            rebase_refused(entry, indexes, shard_id)
            for entry in payload.get("refused", ())
        )
        commits.extend(
            {**commit, "shard_id": shard_id}
            for commit in payload.get("commits", ())
        )
    rejected.sort(key=lambda entry: entry.get("frame", -1))
    sole = next(iter(per_shard.values())) if len(per_shard) == 1 else {}
    return {
        "frames": frames,
        "acked": acked,
        "rejected": rejected,
        "first_lsn": sole.get("first_lsn"),
        "last_lsn": sole.get("last_lsn"),
        "per_shard": per_shard,
        "refused": refused,
        "commits": commits,
    }


def rebase_refused(
    entry: Mapping[str, Any],
    indexes: Sequence[int],
    shard_id: int | None = None,
) -> dict[str, Any]:
    """Rebase a refused-group entry onto the parent batch's frame indexes.

    A refused entry either carries ``frame_start`` + ``frames`` (count)
    — the streaming server's commit-group shape — or an explicit
    ``frames`` index list (the router's shape).  Both are normalised to
    a ``frames`` list of parent-batch indexes via ``indexes``, the
    parent positions of this sub-batch's frames in order.
    """
    out = dict(entry)
    frames = entry.get("frames")
    if isinstance(frames, list):
        out["frames"] = [
            indexes[i]
            for i in frames
            if isinstance(i, int) and 0 <= i < len(indexes)
        ]
    elif isinstance(entry.get("frame_start"), int) and isinstance(
        frames, int
    ):
        start = entry["frame_start"]
        out["frames"] = [
            indexes[i]
            for i in range(max(0, start), min(start + frames, len(indexes)))
        ]
        out.pop("frame_start", None)
        out.pop("group", None)
    if shard_id is not None:
        out["shard_id"] = shard_id
    return out


def merge_stream_lines(lines: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold streamed ``commit``/``done`` lines into one batch summary.

    The listener answers a ``write_batch`` of one commit group (and the
    router any batch) with a single JSON summary, and streams one line
    per group commit for a larger one.  The client funnels both shapes
    through this so callers see one ack either way.  ``commits``
    preserves the per-group ack offsets for callers that track
    durability incrementally.
    """
    merged: dict[str, Any] = {
        "frames": 0,
        "acked": 0,
        "rejected": [],
        "first_lsn": None,
        "last_lsn": None,
        "commits": [],
    }
    for line in lines:
        if line.get("done"):
            # The final line is the authoritative whole-batch summary.
            merged.update(
                (key, value) for key, value in line.items() if key != "done"
            )
            continue
        commit = line.get("commit")
        if isinstance(commit, Mapping):
            merged["commits"].append(dict(commit))
    return merged
