"""Defects the ledger's checks found in the code it measures.

They live here, strict-xfail, until a PR that is allowed to touch ``src/``
fixes them; the day one passes, the marker (and the load generator's
work-around it names) must go.
"""

import pytest

from repro.durability.wal import WriteAheadLog, read_segment_records

_BODY = '{"op":"write","name":"m","tags":{},"ts":1,"v":1.0}'


@pytest.mark.xfail(
    strict=True,
    reason="fsync=always: an append that opens a new segment stays in the "
           "user-space buffer until the next append (flush -> _drain -> "
           "rotate -> inner flush clears _unsynced); see e2e._barrier_write",
)
def test_every_acked_append_is_on_disk_across_a_segment_rotation(tmp_path):
    with WriteAheadLog(tmp_path, segment_max_bytes=1024, fsync="always") as wal:
        for appended in range(1, 101):
            wal.append_body(_BODY)
            on_disk = sum(
                1
                for segment in sorted(tmp_path.glob("wal-*.log"))
                for _ in read_segment_records(segment)
            )
            assert on_disk == appended, (
                f"record {appended} was acknowledged but a reader of the "
                f"segment files sees {on_disk}"
            )
