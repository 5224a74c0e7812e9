"""The chunked frame decoder against the per-record reader it replaced.

``frame_windows`` reads blocks, walks frames with ``unpack_from`` and
decodes a window of payloads in one ``json.loads``; every verdict it
reaches — which records, where it stopped, why — has to be the one the
old reader (``frame_oracle.walk``) reaches frame by frame, on any bytes.
"""

from __future__ import annotations

import io
import json
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.ingest import decode_frames, encode_frame
from repro.durability import DurableMetricsStore, WriteAheadLog
from repro.durability import store as store_module
from repro.durability import wal as wal_module
from repro.durability.wal import frame_windows, read_segment_records
from repro.errors import ApiError, DurabilityError
from tests.durability import frame_oracle
from tests.durability.frame_oracle import frame

WRITE = (
    b'{"lsn":%d,"op":"write","name":"emit-count",'
    b'"tags":{"topology":"t","instance":"bolt_%d"},"ts":%d,"v":%d.5}'
)

#: Payloads that are one JSON value, and ones that only look like one
#: once joined with their neighbours: a splice must never decode.
PAYLOADS = [
    WRITE % (1, 1, 60, 1),
    WRITE % (2, 2, 60, 2),
    b'{"lsn":3,"op":"clear"}',
    b"{}",
    '{"name":"café","tags":{"k":"ü[}"}}'.encode("utf8"),
    b'{"a":[1,{"b":2}]}',
    b'{"a":"},\\n{"}',
    b'{"a":1}\n',
    b' {"a":1} ',
    b"7",
    b'"s"',
    b"[1,2]",
    b"NaN",
    b"",
    # Splices: each alone is not a value (or is two).
    b"1,2",
    b"[1",
    b"2]",
    b'{"a":1},{"b":2}',
    b'{"c":[{"d":1}',
    b'{"e":2}]}',
    b'{"a":"}',
    b'{","b":1}',
    b'{"a":{"b":1}',
    b'{"c":2}}',
    b'{"a":1}]',
    b"\xff\xfe",
    b'{"a":"\xed\xa0\x80"}',
]

payloads = st.sampled_from(PAYLOADS) | st.binary(max_size=12)
pieces = st.one_of(
    payloads.map(frame),
    payloads.map(lambda p: frame(p, crc=0xDEADBEEF)),
    st.just(frame_oracle.HEADER.pack(frame_oracle.MAX_FRAME_BYTES + 1, 0)),
    st.binary(min_size=1, max_size=9),
)


@st.composite
def streams(draw):
    """Frame streams: mostly whole frames, then maybe damage or a cut."""
    raw = b"".join(draw(st.lists(payloads.map(frame), max_size=12)))
    raw += b"".join(draw(st.lists(pieces, max_size=3)))
    if draw(st.booleans()):
        raw = raw[: draw(st.integers(0, len(raw)))]
    return raw


def _decoder_walk(raw: bytes, start: int):
    """``(frames, end_offset, fault)`` as the oracle shapes them."""
    frames = []
    for window, records, offset, fault in frame_windows(io.BytesIO(raw), start):
        for payload, record in zip(window, records, strict=True):
            offset += frame_oracle.HEADER.size + len(payload)
            frames.append((record, payload.decode("utf8"), offset))
    return frames, offset, fault


class TestEquivalence:
    @given(
        raw=streams(),
        block=st.sampled_from([1, 7, 64, 256 * 1024]),
        window=st.sampled_from([1, 3, 1024]),
        resume=st.integers(0, 12),
    )
    @example(
        raw=frame(b"1,2") + frame(b"[1") + frame(b"2]"),
        block=64, window=1024, resume=0,
    )
    @example(
        raw=frame(b'{"a":1},{"b":2}') + frame(b'{"c":[{"d":1}')
        + frame(b'{"e":2}]}'),
        block=64, window=1024, resume=0,
    )
    @example(
        raw=frame(b'{"a":"}') + frame(b'{","b":1}') + frame(b'{"a":1},{"b":2}'),
        block=64, window=1024, resume=0,
    )
    @settings(max_examples=300, deadline=None)
    def test_tolerant_and_strict_agree_with_the_oracle(
        self, raw, block, window, resume
    ):
        expected, _, _ = frame_oracle.walk(raw)
        # Resume where a follower would: at the end of some whole frame.
        start = expected[min(resume, len(expected)) - 1][2] if (
            expected and resume
        ) else 0
        expected, end, fault = frame_oracle.walk(raw, start)
        with mock.patch.multiple(
            wal_module, _BLOCK_BYTES=block, _WINDOW_FRAMES=window
        ):
            assert repr(_decoder_walk(raw, start)) == repr((expected, end, fault))
            assert repr(list(read_segment_records(io.BytesIO(raw), start))) == repr(
                [(record, stop) for record, _, stop in expected]
            )
            if start:
                return
            if fault is None:
                assert repr(decode_frames(raw)) == repr(
                    [(record, body) for record, body, _ in expected]
                )
            else:
                with pytest.raises(ApiError) as caught:
                    decode_frames(raw)
                assert caught.value.status == 400
                assert caught.value.payload == {
                    "frame": len(expected), "offset": end,
                }
                assert str(caught.value) == (
                    f"malformed frame {len(expected)} at byte {end}: {fault}"
                )

    def test_a_window_of_plain_records_is_one_json_call(self):
        raw = b"".join(frame(WRITE % (i, i, 60, i)) for i in range(1, 2001))
        with mock.patch.object(
            wal_module.json, "loads", wraps=json.loads
        ) as loads:
            records = [r for r, _ in read_segment_records(io.BytesIO(raw))]
        assert [r["lsn"] for r in records] == list(range(1, 2001))
        assert loads.call_count <= 2000 // 256 + 2  # windows, not frames

    def test_a_frame_larger_than_a_block_is_read_whole(self):
        big = json.dumps({"lsn": 1, "pad": "x" * (3 * 256 * 1024)}).encode()
        raw = frame(b'{"lsn":0}') + frame(big) + frame(b'{"lsn":2}')
        records = [r for r, _ in read_segment_records(io.BytesIO(raw))]
        assert [r["lsn"] for r in records] == [0, 1, 2]

    def test_wire_and_disk_frames_are_the_same_bytes(self, tmp_path):
        wire = encode_frame("m", 60, 1.5, {"topology": "t"})
        ((_, body),) = decode_frames(wire)
        with WriteAheadLog(tmp_path, fsync="never") as log:
            log.append_bodies([body.encode("utf8")])
        (segment,) = sorted(tmp_path.glob("wal-*.log"))
        ((record, end),) = read_segment_records(segment)
        assert end == segment.stat().st_size
        assert record == {"lsn": 1, **json.loads(body)}


def _fill(directory, records, segment_max_bytes=4 * 1024 * 1024):
    with WriteAheadLog(
        directory, segment_max_bytes=segment_max_bytes, fsync="never"
    ) as log:
        for first in range(0, records, 500):
            log.append_bodies(
                [
                    (WRITE % (0, i % 900, 60 * (1 + i // 900), i))
                    .replace(b'"lsn":0,', b"", 1)
                    for i in range(first, min(first + 500, records))
                ]
            )
    return sorted(directory.glob("wal-*.log"))


class _CountingReads:
    """A segment handle that tallies the bytes read through it."""

    def __init__(self, handle, tally: dict[str, int]) -> None:
        self.handle, self.tally = handle, tally

    def seek(self, offset: int) -> int:
        return self.handle.seek(offset)

    def read(self, size: int) -> bytes:
        block = self.handle.read(size)
        name = str(self.handle.name)
        self.tally[name] = self.tally.get(name, 0) + len(block)
        return block


class TestOnePass:
    def test_open_and_recover_decode_each_payload_once(self, tmp_path):
        segments = _fill(tmp_path / "wal", 3000, segment_max_bytes=64 * 1024)
        assert len(segments) > 3
        read: dict[str, int] = {}
        real = wal_module.frame_windows

        def windows(handle, offset=0, decode=True):
            assert not decode, "an open decodes no window whole"
            return real(_CountingReads(handle, read), offset, decode)

        with mock.patch.object(wal_module, "frame_windows", windows), \
                mock.patch.object(store_module, "frame_windows", windows), \
                mock.patch.object(
                    store_module.json, "loads", wraps=json.loads
                ) as loads:
            with DurableMetricsStore(tmp_path) as store:
                assert store.recovery.replayed_records == 3000
                assert store.recovery.segments == len(segments)
        # Every byte of every segment was read once: scan and replay are
        # one walk.
        assert read == {str(path): path.stat().st_size for path in segments}
        # The 900 series' first records were decoded — once each, in log
        # order, as the body after the LSN prefix — and every later minute
        # of a series was resolved by its head.
        decoded = [call.args[0] for call in loads.call_args_list]
        assert decoded == [
            (WRITE % (0, i, 60, i)).replace(b'"lsn":0,', b"", 1).decode()
            for i in range(900)
        ]
        assert store.recovery.decoded_records == 900

    def test_replay_memory_is_bounded_by_a_window_not_a_segment(self, tmp_path):
        segments = _fill(tmp_path, 40_000, segment_max_bytes=2 * 1024 * 1024)
        assert len(segments) >= 2
        assert segments[0].stat().st_size > 1_900_000
        with WriteAheadLog(tmp_path, fsync="never") as log:
            tracemalloc.start()
            try:
                count = sum(1 for _ in log.replay())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert count == 40_000
        # A window is 256 decoded records over a 256 KiB block (~1.3 MiB
        # traced); decoding a segment whole would hold every record of it
        # at once (+46 MiB of RSS for a 4 MiB segment when it was tried).
        assert peak < 3 * 1024 * 1024

    def test_scan_reports_extent_without_decoding(self, tmp_path):
        segments = _fill(tmp_path, 1200, segment_max_bytes=64 * 1024)
        with WriteAheadLog(tmp_path, fsync="never") as log:
            assert log.scan.records == 1200
            assert log.scan.segments == len(segments)
            assert log.scan.bytes == sum(p.stat().st_size for p in segments)
            assert log.last_lsn == 1200

    def test_crc_valid_garbage_mid_log_fails_replay_loudly(self, tmp_path):
        (segment,) = _fill(tmp_path, 3)
        with open(segment, "ab") as handle:
            handle.write(frame(b"not json") + frame(b'{"lsn":5,"op":"clear"}'))
        with WriteAheadLog(tmp_path, fsync="never") as log:
            with pytest.raises(DurabilityError, match="payload is not JSON"):
                list(log.replay())
