"""Durable batched ingest: one lock, one group commit, one fsync.

``DurableMetricsStore.ingest_frames`` appends client-framed payloads to
the WAL verbatim (modulo the spliced LSN); these tests pin the group
commit (at most one fsync per batch under ``fsync="always"``), LSN
contiguity, the no-journal rule for rejected frames, and that a batched
ingest recovers to the exact same store state as unbatched writes.
"""

from __future__ import annotations

import json

import pytest

from repro.api.ingest import decode_frames, encode_frame, encode_frames
from repro.durability import DurableMetricsStore, store_content_hash
from repro.durability.store import frame_sample
from repro.errors import MetricsError


def _frames(entries):
    """Encode + decode entries, as the API tier hands them to the store."""
    return decode_frames(
        encode_frames(
            [
                (name, ts, value, tags)
                for name, ts, value, tags in entries
            ]
        )
    )


def _entries(count, topology="wc", start=60):
    return [
        ("arrivals", start + 60 * i, float(i), {"topology": topology})
        for i in range(count)
    ]


class TestFrameSample:
    def test_valid_frame_round_trips(self):
        ((record, body),) = decode_frames(
            encode_frame("arrivals", 60, 1.5, {"topology": "wc"})
        )
        key, ts, value = frame_sample(record, body)
        assert key.name == "arrivals"
        assert dict(key.tags) == {"topology": "wc"}
        assert (ts, value) == (60, 1.5)

    def test_lsn_key_is_rejected(self):
        # A client-supplied lsn would collide with the server's spliced
        # prefix on replay (duplicate JSON key; json.loads keeps the
        # last), silently rewriting recovery's LSN bookkeeping.
        body = '{"op":"write","name":"m","tags":{},"ts":60,"v":1.0,"lsn":9}'
        with pytest.raises(MetricsError, match="must not carry an 'lsn'"):
            frame_sample(json.loads(body), body)

    @pytest.mark.parametrize(
        "record, message",
        [
            ([1, 2], "JSON object"),
            ({"op": "clear"}, "unsupported frame op"),
            ({"op": "write", "name": "", "ts": 60, "v": 1.0}, "non-empty"),
            (
                {"op": "write", "name": "m", "tags": {"a": 1}, "ts": 60,
                 "v": 1.0},
                "strings to strings",
            ),
            (
                {"op": "write", "name": "m", "ts": True, "v": 1.0},
                "'ts' must be a number",
            ),
            (
                {"op": "write", "name": "m", "ts": 60, "v": "hi"},
                "'v' must be a number",
            ),
        ],
    )
    def test_malformed_records_are_named(self, record, message):
        with pytest.raises(MetricsError, match=message):
            frame_sample(record, json.dumps(record))

    @pytest.mark.parametrize(
        "fields", ['"ts":NaN,"v":1.0', '"ts":Infinity,"v":1.0',
                   '"ts":60,"v":1' + "0" * 400],
    )
    def test_numbers_that_do_not_convert_are_rejected_not_raised(self, fields):
        body = '{"op":"write","name":"m","tags":{},%s}' % fields
        with pytest.raises(MetricsError, match="must be finite"):
            frame_sample(json.loads(body), body)

    def test_non_finite_value_is_rejected(self):
        # Python's json.loads accepts NaN/Infinity literals, but the
        # WAL promises strictly valid JSON payloads.
        body = '{"op":"write","name":"m","tags":{},"ts":60,"v":NaN}'
        with pytest.raises(MetricsError, match="must be finite"):
            frame_sample(json.loads(body), body)


class TestGroupCommit:
    def test_one_fsync_per_batch(self, tmp_path):
        with DurableMetricsStore(tmp_path, fsync="always") as store:
            before = store.wal.fsyncs
            result = store.ingest_frames(_frames(_entries(100)))
            assert result["acked"] == 100
            assert store.wal.fsyncs - before == 1

    def test_lsns_are_contiguous_and_continue_the_log(self, tmp_path):
        with DurableMetricsStore(tmp_path, fsync="always") as store:
            store.write("seed", 60, 1.0)  # lsn 1
            result = store.ingest_frames(_frames(_entries(10)))
            assert result["first_lsn"] == 2
            assert result["last_lsn"] == 11
            again = store.ingest_frames(_frames(_entries(5, start=6060)))
            assert again["first_lsn"] == 12
            assert again["last_lsn"] == 16

    def test_rejected_frames_are_not_journaled(self, tmp_path):
        with DurableMetricsStore(tmp_path, fsync="always") as store:
            good = _entries(3)
            batch = _frames(good)
            # Frame 1 is stale (same ts as frame 0's series tail would
            # reject only later entries of the same series) — use an
            # explicit duplicate instead.
            stale = _frames(
                [("arrivals", 60, 9.0, {"topology": "wc"})]
            )
            result = store.ingest_frames(batch + stale)
            assert result["acked"] == 3
            assert [r["frame"] for r in result["rejected"]] == [3]
            assert "increasing timestamp order" in (
                result["rejected"][0]["error"]
            )
            assert result["last_lsn"] - result["first_lsn"] + 1 == 3
        # Recovery replays only the journaled (acked) frames.
        with DurableMetricsStore(tmp_path) as reopened:
            assert reopened.recovery.replayed_records == 3
            series = reopened.get("arrivals", {"topology": "wc"})
            assert list(series.values) == [0.0, 1.0, 2.0]

    def test_all_rejected_batch_journals_nothing(self, tmp_path):
        with DurableMetricsStore(tmp_path, fsync="always") as store:
            before = store.wal.fsyncs
            bad = '{"op":"write","name":"m","ts":60,"v":1.0,"lsn":1}'
            result = store.ingest_frames([(json.loads(bad), bad)])
            assert result["acked"] == 0
            assert result["first_lsn"] is None
            assert store.wal.fsyncs == before

    def test_what_is_journaled_is_what_was_validated(self, tmp_path):
        """The pair form used to validate the record and journal the
        body, whatever it said; only the body counts now."""
        record = {"op": "write", "name": "a", "tags": {}, "ts": 60, "v": 1.0}
        with DurableMetricsStore(tmp_path, fsync="always") as store:
            result = store.ingest_frames([(record, '{"op":"clear"}')])
            assert result["acked"] == 0
            assert "unsupported frame op" in result["rejected"][0]["error"]
            body = '{"op":"write","name":"b","tags":{},"ts":60,"v":2.0}'
            assert store.ingest_frames([(record, body)])["acked"] == 1
            live = store_content_hash(store)
            assert [key.name for key in store.keys()] == ["b"]
        with DurableMetricsStore(tmp_path) as reopened:
            assert reopened.recovery.replayed_records == 1
            assert store_content_hash(reopened) == live

    def test_recovery_matches_unbatched_writes(self, tmp_path):
        entries = _entries(25) + _entries(25, topology="other")
        batched_dir = tmp_path / "batched"
        plain_dir = tmp_path / "plain"
        with DurableMetricsStore(batched_dir, fsync="always") as store:
            store.ingest_frames(_frames(entries))
        with DurableMetricsStore(plain_dir, fsync="always") as store:
            for name, ts, value, tags in entries:
                store.write(name, ts, value, tags)
        with DurableMetricsStore(batched_dir) as batched, (
            DurableMetricsStore(plain_dir)
        ) as plain:
            assert batched.recovery.replayed_records == 50
            assert store_content_hash(batched) == store_content_hash(plain)
            assert batched.data_version("wc") == plain.data_version("wc")


class TestAppendBodies:
    def test_bodies_land_verbatim_with_spliced_lsn(self, tmp_path):
        with DurableMetricsStore(tmp_path, fsync="always") as store:
            frames = _frames(_entries(2))
            store.ingest_frames(frames)
            import struct

            header = struct.Struct("<II")
            records = []
            for segment in sorted((tmp_path / "wal").glob("*.log")):
                blob = segment.read_bytes()
                offset = 0
                while offset < len(blob):
                    length, _ = header.unpack_from(blob, offset)
                    start = offset + header.size
                    records.append(blob[start:start + length].decode("utf8"))
                    offset = start + length
            assert len(records) == 2
            for (record, body), journaled in zip(frames, records):
                parsed = json.loads(journaled)
                lsn = parsed.pop("lsn")
                assert isinstance(lsn, int)
                # Byte-for-byte: the journaled record is the client's
                # payload with only the lsn prefix spliced in.
                assert journaled == '{"lsn":%d,%s' % (lsn, body[1:])
