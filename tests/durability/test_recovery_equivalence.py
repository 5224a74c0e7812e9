"""One-walk recovery restores what the two-pass, per-record path did.

Logs are generated with everything recovery has to get right at once —
several segments, interleaved ``clear`` records, samples the store will
reject (duplicates, records a checkpoint already covers, a checkpoint cut
in the middle of a series), tag orders a client chose, record spellings
the head table must not resolve (tails outside its grammar, duplicate
keys, an ``lsn`` inside the tags, newlines between tokens), a torn tail —
and recovered three ways: by ``frame_oracle`` (the parent's reader and
replay loop, read-only), by opening the directory, and by a follower fed
the checkpoint and the segments' bytes cut into arbitrary chunks.  State,
series order, versions and counts must agree.
"""

from __future__ import annotations

import itertools
import json
import logging
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.ingest import encode_frames, split_frames
from repro.cli import main
from repro.cluster.follower import FollowerReplica
from repro.durability import DurableMetricsStore, store_content_hash
from repro.durability.checkpoint import CHECKPOINT_FILENAME, CHECKPOINT_FORMAT
from repro.durability.codec import encode_store_state
from repro.durability.recovery import peek_recoverable_lsn
from tests.durability import frame_oracle
from tests.durability.frame_oracle import frame
from tests.readings import reading

TOPOLOGIES = ("alpha", "beta", None)

#: How a record may be spelled, beyond the plain compact form (0).
SPELLINGS = {
    1: "ts outside the tail grammar",
    2: "v outside the tail grammar",
    3: "an lsn key inside the tags",
    4: "duplicate top-level keys, the earlier ones shadowed",
    5: "raw newlines between tokens",
    6: "a top-level lsn of its own (its LSN again)",
}
writes = st.tuples(
    st.just("write"),
    st.integers(0, 5),                 # series
    st.integers(1, 12),                # minute: collisions are duplicates
    st.sampled_from(TOPOLOGIES),
    st.booleans(),                     # tag order: sorted, or a client's
    st.sampled_from([0, 0, 0, *SPELLINGS]),
    st.integers(0, 5),                 # which odd ts / v
)
operations = st.lists(
    st.one_of(
        writes, writes, writes, writes,
        st.just(("clear",)), st.just(("checkpoint",)),
    ),
    min_size=1, max_size=60,
)


#: Spellings of a timestamp ``t`` (a multiple of 60) and of a value that
#: JSON reads and the tail grammar does not.
ODD_TS = (
    lambda t: f"{t // 10}e1", lambda t: f"{t}.0", lambda t: f"{t}.0e0",
    lambda t: f"{t // 10}E+1", lambda t: f"{t}.00",
    lambda t: f"{t * 10}e-1",
)
ODD_V = ("-0", "1e2", "Infinity", "-Infinity", "NaN", "-0.0")


def _body(
    series: int, minute: int, topology, reverse: bool,
    spelling: int = 0, odd: int = 0, lsn: int = 0,
) -> str:
    tags = {"instance": f"i{series}", "container": str(series % 2)}
    if topology is not None:
        tags["topology"] = topology
    if spelling == 3:
        tags["lsn"] = str(series)
    compact = {"separators": (",", ":")}
    name = json.dumps(f"m{series % 3}")
    tags = json.dumps(dict(sorted(tags.items(), reverse=reverse)), **compact)
    ts, value = str(60 * minute), repr(float(series + minute))
    if spelling == 1:
        ts = ODD_TS[odd](60 * minute)
    elif spelling == 2:
        value = ODD_V[odd]
    head = '{"op":"write","name":%s,"tags":%s' % (name, tags)
    if spelling == 4:
        head = '{"op":"write","name":"shadowed","ts":1,"v":2,"tags":{},' + head[1:]
    elif spelling == 5:
        head = head.replace(",", ",\n", 1).replace(":", "\n:", 1)
    elif spelling == 6:
        head = '{"op":"write","lsn":%d,' % lsn + head[len('{"op":"write",'):]
    return '%s,"ts":%s,"v":%s}' % (head, ts, value)


def _write_checkpoint(directory: Path, **fields) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT, "retention_seconds": None, "tracker": None,
        **fields,
    }
    (directory / CHECKPOINT_FILENAME).write_text(json.dumps(payload))


def _build(directory: Path, ops, tear: int) -> None:
    """Journal ``ops`` straight into the log: the store would refuse the
    duplicates, and recovery has to cope with a log that holds them."""
    with DurableMetricsStore(
        directory, fsync="never", segment_max_bytes=1024
    ) as store:
        for op in ops:
            if op[0] == "write":
                body = _body(*op[1:], lsn=store.wal.last_lsn + 1)
                store.wal.append_bodies([body.encode("utf8")])
            elif op[0] == "clear":
                store.wal.append({"op": "clear"})
            else:
                # A checkpoint whose segments were never pruned (a crash
                # between the two): the log still holds what it covers.
                store.wal.flush()
                state, _ = frame_oracle.recover(directory)
                _write_checkpoint(
                    directory,
                    last_lsn=store.wal.last_lsn,
                    store=encode_store_state(state),
                )
    segments = sorted((directory / "wal").glob("wal-*.log"))
    if tear and segments:
        size = segments[-1].stat().st_size
        with open(segments[-1], "r+b") as handle:
            handle.truncate(max(0, size - tear))


def _follow(directory: Path, replica_dir: Path, chunks) -> FollowerReplica:
    """A follower fed what a shipper would send: the checkpoint, then
    every segment's bytes in chunks of the drawn sizes (cycled)."""
    replica = FollowerReplica(replica_dir)
    checkpoint = directory / CHECKPOINT_FILENAME
    if checkpoint.exists():
        replica.receive_checkpoint(checkpoint.read_bytes())
    sizes = itertools.cycle(chunks)
    for segment in sorted((directory / "wal").glob("wal-*.log")):
        raw, offset = segment.read_bytes(), 0
        while offset < len(raw):
            chunk = raw[offset : offset + next(sizes)]
            status, _ = replica.receive_segment(segment.name, offset, chunk)
            assert status == 200
            offset += len(chunk)
    return replica


@given(
    ops=operations,
    tear=st.integers(0, 40),
    chunks=st.lists(st.integers(1, 300), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_recovery_equals_the_oracle_path(ops, tear, chunks):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "shard"
        _build(directory, ops, tear)
        expected, counts = frame_oracle.recover(directory)
        assert peek_recoverable_lsn(directory) == counts["last_lsn"]
        replica = _follow(directory, Path(tmp) / "replica", chunks)
        with DurableMetricsStore(directory) as store:
            assert store_content_hash(store) == store_content_hash(expected)
            assert list(store._series) == list(expected._series)
            for topology in TOPOLOGIES:
                assert store.data_version(topology) == expected.data_version(
                    topology
                )
            report = store.recovery.as_dict()
            assert {name: report[name] for name in counts} == counts
        assert store_content_hash(replica.store) == store_content_hash(expected)
        assert list(replica.store._series) == list(expected._series)
        assert (replica.applied_records, replica.skipped_records) == (
            counts["replayed_records"], counts["skipped_records"]
        )


def test_a_log_written_before_this_change_recovers_identically(tmp_path):
    """Frames are the parent's bytes: built here with nothing but struct,
    zlib and the documented record text."""
    segment = tmp_path / "wal" / f"wal-{1:016d}.log"
    segment.parent.mkdir()
    bodies = [_body(i % 4, 1 + i // 4, "alpha", i % 2 == 0) for i in range(40)]
    segment.write_bytes(
        b"".join(
            frame(('{"lsn":%d,%s' % (lsn, body[1:])).encode("utf8"))
            for lsn, body in enumerate(bodies, 1)
        )
    )
    expected, counts = frame_oracle.recover(tmp_path)
    with DurableMetricsStore(tmp_path, fsync="always") as store:
        assert store_content_hash(store) == store_content_hash(expected)
        assert store.recovery.replayed_records == counts["replayed_records"] == 40
        # ... and what this side appends is what the old reader reads.
        store.write("m9", 60, 1.0, {"topology": "alpha"})
    frames, end, fault = frame_oracle.walk(segment.read_bytes())
    assert (len(frames), end, fault) == (41, segment.stat().st_size, None)
    assert frames[-1][0] == {
        "lsn": 41, "op": "write", "name": "m9",
        "tags": {"topology": "alpha"}, "ts": 60, "v": 1.0,
    }


def _write(n: int, **fields) -> bytes:
    """The ``n``-th sample of one series, with ``fields`` overriding its
    record (``...`` drops a field)."""
    record = {
        "lsn": n, "op": "write", "name": "m", "tags": {"topology": "t"},
        "ts": 60 * n, "v": float(n),
    }
    record.update(fields)
    return frame(
        json.dumps(
            {k: v for k, v in record.items() if v is not ...},
            separators=(",", ":"),
        ).encode("utf8")
    )


#: CRC-valid frames that are not replayable records.  Each used to raise
#: out of ``DurableMetricsStore.__init__`` and the follower's apply loop.
MALFORMED = {
    "write_without_name": _write(2, name=...),
    "non_numeric_ts": _write(2, ts="soon"),
    "non_mapping_tags": _write(2, tags=["topology", "t"]),
    "unhashable_tag_value": _write(2, tags={"topology": ["t"]}),
    "non_string_name": _write(2, name=7),
    "payload_not_an_object": frame(b'[2,"write"]'),
    "lsn_not_a_number": _write(2, lsn="two"),
    # The ingest gate's type rules, which replay used to coerce past.
    "string_ts": _write(2, ts="120"),
    "string_v": _write(2, v="1.5"),
    "non_string_tag_value": _write(2, tags={"topology": "t", "a": 1}),
    "boolean_v": _write(2, v=True),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_record_is_skipped_and_counted(tmp_path, case, caplog):
    raw = _write(1) + MALFORMED[case] + _write(3)
    shard = tmp_path / "shard" / "wal"
    shard.mkdir(parents=True)
    (shard / f"wal-{1:016d}.log").write_bytes(raw)
    shutil.copytree(shard, tmp_path / "replica" / "wal")
    assert peek_recoverable_lsn(tmp_path / "shard") == 3

    with caplog.at_level(logging.INFO, logger="repro.durability.store"):
        with DurableMetricsStore(tmp_path / "shard") as store:
            recovery = store.recovery
            assert list(store.get("m", {"topology": "t"}).timestamps) == [60, 180]
            assert store.wal.last_lsn == 3
    # An LSN that is not an integer cannot be placed after the checkpoint
    # cut, so that record is filtered like any other not-newer one.
    skipped = 0 if case == "lsn_not_a_number" else 1
    assert (recovery.replayed_records, recovery.skipped_records) == (2, skipped)
    assert (recovery.segments, recovery.bytes) == (1, len(raw))
    assert recovery.seconds > 0
    (line,) = [r.getMessage() for r in caplog.records]
    assert f"records=2 skipped={skipped} torn=0 segments=1" in line

    replica = FollowerReplica(tmp_path / "replica")
    assert (replica.applied_records, replica.skipped_records) == (2, skipped)
    assert replica.applied_lsn == 3
    assert store_content_hash(replica.store) == store_content_hash(store)


def test_a_steady_state_log_decodes_each_series_once(tmp_path, caplog, capsys):
    """First sightings and other ops are decoded; every later minute of a
    series — batched or per-sample — is resolved by its head, and the
    restarted store's first ``write_batch`` resolves by head too."""
    series = [
        ("emit-count", {"component": "c", "instance": f"i{i}", "topology": "wc"})
        for i in range(50)
    ]

    def minute(n: int):
        return [(name, 60 * n, float(i), tags) for i, (name, tags) in enumerate(series)]

    with DurableMetricsStore(tmp_path, fsync="never") as store:
        store.clear()
        for n in range(1, 9):
            if n % 2:
                store.ingest_frames(split_frames(encode_frames(minute(n)))[0])
            else:
                for entry in minute(n):
                    store.write(*entry)
    with caplog.at_level(logging.INFO, logger="repro.durability.store"):
        with DurableMetricsStore(tmp_path, fsync="never") as store:
            report = store.recovery
            store.ingest_frames(split_frames(encode_frames(minute(9)))[0])
            assert reading(store, "store.frames_by_head") == 50
            assert reading(store, "store.frames_decoded") == 0
    assert report.replayed_records == 1 + 8 * 50
    assert report.decoded_records == 1 + 50  # the clear, and each series once
    (line,) = [r.getMessage() for r in caplog.records]
    assert " decoded=51 " in line

    assert main(["recover", "--data-dir", str(tmp_path), "--no-checkpoint"]) == 0
    assert "wal decoded  : 51 records" in capsys.readouterr().out


def test_replay_learns_only_heads_the_ingest_gate_passes(tmp_path):
    """Replay restores records the ingest gate refuses — an empty name, a
    top-level ``lsn`` of the body's own — but must not teach the shared
    head table their heads, or ``write_batch`` would take such a frame
    by its head without the gate."""
    refused = [
        '{"op":"write","lsn":%d,"name":"m","tags":{},"ts":%d,"v":1.0}',
        '{"op":"write","name":"","tags":{},"ts":%d,"v":1.0}',
    ]
    with DurableMetricsStore(tmp_path, fsync="never") as store:
        store.wal.append_bodies([(refused[0] % (1, 60)).encode()])
        store.wal.append_bodies([(refused[1] % 60).encode()])
    with DurableMetricsStore(tmp_path, fsync="never") as store:
        assert store.recovery.replayed_records == 2
        result = store.ingest_frames([
            (refused[0] % (1, 120)).encode(), (refused[1] % 120).encode(),
        ])
        assert [r["frame"] for r in result["rejected"]] == [0, 1]
        assert reading(store, "store.frames_by_head") == 0


def test_a_known_head_below_the_cut_is_dropped_like_the_oracle_drops_it(
    tmp_path,
):
    """LSNs out of order (a log written by hand): the record at LSN 1
    comes after its series' head was learned at LSN 3, and the checkpoint
    cut at 2 still drops it unread — as the oracle does, not as a sample
    the store refuses."""
    segment = tmp_path / "wal" / f"wal-{1:016d}.log"
    segment.parent.mkdir()
    segment.write_bytes(_write(3) + _write(1) + _write(4))
    _write_checkpoint(
        tmp_path, last_lsn=2, store={"series": [], "versions": [], "latest": None}
    )
    expected, counts = frame_oracle.recover(tmp_path)
    assert counts["skipped_records"] == 0
    with DurableMetricsStore(tmp_path) as store:
        report = store.recovery.as_dict()
        assert {name: report[name] for name in counts} == counts
        assert store_content_hash(store) == store_content_hash(expected)
        assert report["decoded_records"] == 1  # LSNs 1 and 4 by their head
