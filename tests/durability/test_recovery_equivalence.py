"""One-pass recovery restores what the two-pass, per-record path did.

Logs are generated with everything recovery has to get right at once —
several segments, interleaved ``clear`` records, samples the store will
reject (duplicates, records a checkpoint already covers), tag orders a
client chose, a torn tail — and recovered twice: by ``frame_oracle``
(the parent's reader and replay loop, read-only) and by opening the
directory.  State, series order, versions and counts must agree.
"""

from __future__ import annotations

import json
import logging
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.follower import FollowerReplica
from repro.durability import DurableMetricsStore, store_content_hash
from repro.durability.checkpoint import (
    CHECKPOINT_FILENAME,
    CHECKPOINT_FORMAT,
    atomic_write_json,
)
from repro.durability.codec import encode_store_state
from repro.durability.recovery import peek_recoverable_lsn
from tests.durability import frame_oracle
from tests.durability.frame_oracle import frame

TOPOLOGIES = ("alpha", "beta", None)

writes = st.tuples(
    st.just("write"),
    st.integers(0, 5),                 # series
    st.integers(1, 12),                # minute: collisions are duplicates
    st.sampled_from(TOPOLOGIES),
    st.booleans(),                     # tag order: sorted, or a client's
)
operations = st.lists(
    st.one_of(
        writes, writes, writes, writes,
        st.just(("clear",)), st.just(("checkpoint",)),
    ),
    min_size=1, max_size=60,
)


def _body(series: int, minute: int, topology, reverse: bool) -> str:
    tags = {"instance": f"i{series}", "container": str(series % 2)}
    if topology is not None:
        tags["topology"] = topology
    return json.dumps(
        {
            "op": "write", "name": f"m{series % 3}",
            "tags": dict(sorted(tags.items(), reverse=reverse)),
            "ts": 60 * minute, "v": float(series + minute),
        },
        separators=(",", ":"),
    )


def _build(directory: Path, ops, tear: int) -> None:
    """Journal ``ops`` straight into the log: the store would refuse the
    duplicates, and recovery has to cope with a log that holds them."""
    with DurableMetricsStore(
        directory, fsync="never", segment_max_bytes=1024
    ) as store:
        for op in ops:
            if op[0] == "write":
                store.wal.append_bodies([_body(*op[1:]).encode("utf8")])
            elif op[0] == "clear":
                store.wal.append({"op": "clear"})
            else:
                # A checkpoint whose segments were never pruned (a crash
                # between the two): the log still holds what it covers.
                store.wal.flush()
                state, _ = frame_oracle.recover(directory)
                atomic_write_json(
                    directory / CHECKPOINT_FILENAME,
                    {
                        "format": CHECKPOINT_FORMAT,
                        "last_lsn": store.wal.last_lsn,
                        "retention_seconds": None,
                        "store": encode_store_state(state),
                        "tracker": None,
                    },
                )
    segments = sorted((directory / "wal").glob("wal-*.log"))
    if tear and segments:
        size = segments[-1].stat().st_size
        with open(segments[-1], "r+b") as handle:
            handle.truncate(max(0, size - tear))


@given(ops=operations, tear=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_recovery_equals_the_oracle_path(ops, tear):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _build(directory, ops, tear)
        expected, counts = frame_oracle.recover(directory)
        assert peek_recoverable_lsn(directory) == counts["last_lsn"]
        with DurableMetricsStore(directory) as store:
            assert store_content_hash(store) == store_content_hash(expected)
            assert list(store._series) == list(expected._series)
            for topology in TOPOLOGIES:
                assert store.data_version(topology) == expected.data_version(
                    topology
                )
            report = store.recovery.as_dict()
            assert {name: report[name] for name in counts} == counts


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
