"""Write-ahead log invariants: framing, torn tails, rotation, pruning.

The property tests simulate the only crash model a WAL must survive —
the file ends mid-frame — by truncating arbitrary byte counts off the
end and asserting replay returns an exact prefix of what was appended.
"""

from __future__ import annotations

import json
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.wal import (
    FSYNC_ALWAYS,
    FSYNC_NEVER,
    WriteAheadLog,
    read_segment_records,
)
from repro.errors import DurabilityError

_HEADER = struct.Struct("<II")


def _records(wal: WriteAheadLog, after_lsn: int = 0) -> list[dict]:
    return list(wal.replay(after_lsn=after_lsn))


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=FSYNC_ALWAYS) as wal:
            for i in range(5):
                lsn = wal.append({"op": "write", "i": i})
                assert lsn == i + 1
        with WriteAheadLog(tmp_path) as wal:
            records = _records(wal)
            assert [r["i"] for r in records] == list(range(5))
            assert [r["lsn"] for r in records] == [1, 2, 3, 4, 5]
            assert wal.last_lsn == 5

    def test_replay_after_lsn_filters(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for i in range(10):
                wal.append({"i": i})
        with WriteAheadLog(tmp_path) as wal:
            assert [r["i"] for r in _records(wal, after_lsn=7)] == [7, 8, 9]

    def test_appends_resume_after_reopen(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append({"i": 0})
        with WriteAheadLog(tmp_path) as wal:
            assert wal.append({"i": 1}) == 2
            assert [r["lsn"] for r in _records(wal)] == [1, 2]

    def test_advance_to_skips_issued_range(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.advance_to(100)
            assert wal.append({"i": 0}) == 101
        with WriteAheadLog(tmp_path) as wal:
            assert wal.last_lsn == 101
            # advance_to never moves backwards
            wal.advance_to(5)
            assert wal.append({"i": 1}) == 102

    def test_rejects_unknown_fsync_policy(self, tmp_path):
        with pytest.raises(DurabilityError):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_fsync_counters(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=FSYNC_ALWAYS) as wal:
            for i in range(3):
                wal.append({"i": i})
            assert wal.fsyncs == 3
        with WriteAheadLog(tmp_path / "never", fsync=FSYNC_NEVER) as wal:
            wal.append({"i": 0})
            assert wal.fsyncs == 0
            wal.flush()  # explicit flush works regardless of policy
            assert wal.fsyncs == 1


class TestTornTail:
    def _write(self, tmp_path, n: int) -> None:
        with WriteAheadLog(tmp_path, fsync=FSYNC_ALWAYS) as wal:
            for i in range(n):
                wal.append({"i": i})

    def test_truncated_final_record_is_skipped(self, tmp_path):
        self._write(tmp_path, 4)
        segment = next(tmp_path.glob("wal-*.log"))
        data = segment.read_bytes()
        segment.write_bytes(data[:-3])  # tear the last record's payload
        with WriteAheadLog(tmp_path) as wal:
            assert wal.scan.torn_records == 1
            assert [r["i"] for r in _records(wal)] == [0, 1, 2]
            # appends resume cleanly at the next LSN after the survivors
            assert wal.append({"i": 99}) == 4
        with WriteAheadLog(tmp_path) as wal:
            assert [r["i"] for r in _records(wal)] == [0, 1, 2, 99]
            assert wal.scan.torn_records == 0  # the tear was truncated away

    def test_corrupt_crc_on_tail_is_skipped(self, tmp_path):
        self._write(tmp_path, 3)
        segment = next(tmp_path.glob("wal-*.log"))
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the final record
        segment.write_bytes(bytes(data))
        with WriteAheadLog(tmp_path) as wal:
            assert wal.scan.torn_records == 1
            assert [r["i"] for r in _records(wal)] == [0, 1]

    def test_corruption_in_non_final_segment_raises(self, tmp_path):
        # Force several segments with a tiny rotation bound.
        with WriteAheadLog(tmp_path, segment_max_bytes=1024) as wal:
            for i in range(40):
                wal.append({"i": i, "pad": "x" * 100})
        segments = sorted(tmp_path.glob("wal-*.log"))
        assert len(segments) > 2
        data = bytearray(segments[0].read_bytes())
        data[10] ^= 0xFF
        segments[0].write_bytes(bytes(data))
        with pytest.raises(DurabilityError, match="not the final segment"):
            WriteAheadLog(tmp_path)

    def test_oversize_length_word_treated_as_torn(self, tmp_path):
        self._write(tmp_path, 2)
        segment = next(tmp_path.glob("wal-*.log"))
        payload = json.dumps({"lsn": 3}).encode()
        bogus = _HEADER.pack(2**31, zlib.crc32(payload)) + payload
        segment.write_bytes(segment.read_bytes() + bogus)
        with WriteAheadLog(tmp_path) as wal:
            assert wal.scan.torn_records == 1
            assert [r["i"] for r in _records(wal)] == [0, 1]


class TestRotationAndPruning:
    def test_rotation_produces_multiple_segments(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_max_bytes=1024) as wal:
            for i in range(50):
                wal.append({"i": i, "pad": "y" * 60})
        assert len(list(tmp_path.glob("wal-*.log"))) > 1
        with WriteAheadLog(tmp_path, segment_max_bytes=1024) as wal:
            assert [r["i"] for r in _records(wal)] == list(range(50))

    @pytest.mark.parametrize("group", [1, 3], ids=["append", "append_bodies"])
    def test_acked_append_is_on_disk_across_rotations(self, tmp_path, group):
        """Under ``always`` an append that opens a new segment must be
        synced into it before it is acknowledged (it used to sit in the
        fresh handle's user-space buffer until the next append)."""
        body = b'{"op":"write","name":"m","tags":{},"ts":1,"v":1.0}'
        with WriteAheadLog(
            tmp_path, segment_max_bytes=1024, fsync=FSYNC_ALWAYS
        ) as wal:
            for acked in range(group, 120 + group, group):
                if group == 1:
                    wal.append({"op": "write", "name": "m", "ts": 1, "v": 1.0})
                else:
                    wal.append_bodies([body] * group)
                on_disk = sum(
                    1
                    for segment in wal.segments()
                    for _ in read_segment_records(segment)
                )
                assert on_disk == acked
            assert len(wal.segments()) > 5

    def test_prune_keeps_segments_with_newer_records(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_max_bytes=1024) as wal:
            for i in range(50):
                wal.append({"i": i, "pad": "z" * 60})
            segments = sorted(tmp_path.glob("wal-*.log"))
            assert len(segments) > 2
            # prune exactly through the first segment's records
            second_first = int(segments[1].name[4:-4])
            assert wal.prune_through(second_first - 1) == 1
            # a checkpoint LSN *inside* a segment must not delete it
            assert wal.prune_through(second_first) == 0
            # every record past the checkpoint LSN must still replay
            assert [
                r["lsn"] for r in _records(wal, after_lsn=second_first - 1)
            ] == list(range(second_first, 51))

    def test_prune_everything_then_append(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for i in range(5):
                wal.append({"i": i})
            assert wal.prune_through(wal.last_lsn) == 1
            assert wal.append({"i": 5}) == 6  # LSNs keep moving forward
            assert [r["i"] for r in _records(wal, after_lsn=5)] == [5]


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        payloads=st.lists(
            st.dictionaries(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=0, max_value=10**6),
                max_size=3,
            ),
            min_size=1,
            max_size=30,
        ),
        cut=st.integers(min_value=1, max_value=200),
    )
    def test_truncation_yields_exact_prefix(self, tmp_path_factory, payloads, cut):
        """Chopping bytes off the tail loses only a suffix of records."""
        root = tmp_path_factory.mktemp("wal-prop")
        with WriteAheadLog(root, fsync=FSYNC_NEVER) as wal:
            for payload in payloads:
                wal.append({"p": payload})
        segment = max(root.glob("wal-*.log"))
        data = segment.read_bytes()
        segment.write_bytes(data[: max(0, len(data) - cut)])
        with WriteAheadLog(root) as wal:
            recovered = [r["p"] for r in _records(wal)]
        assert recovered == payloads[: len(recovered)]
        assert len(recovered) < len(payloads) or cut >= 0

    @settings(max_examples=20, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=40),
        segment_max=st.integers(min_value=1024, max_value=4096),
        prune_at=st.integers(min_value=0, max_value=40),
    )
    def test_prune_never_loses_unsubsumed_records(
        self, tmp_path_factory, count, segment_max, prune_at
    ):
        root = tmp_path_factory.mktemp("wal-prune")
        with WriteAheadLog(root, segment_max_bytes=segment_max) as wal:
            for i in range(count):
                wal.append({"i": i, "pad": "p" * 50})
            wal.prune_through(prune_at)
            survivors = [r["lsn"] for r in _records(wal, after_lsn=prune_at)]
        assert survivors == list(range(prune_at + 1, count + 1))
