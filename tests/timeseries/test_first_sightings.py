"""A series first seen in a ``write_batch`` is decoded once, not per frame.

``MetricsStore.frame_samples`` resolves a payload by its *head* once the
head is registered.  A batch that carries several minutes of series the
store has never seen used to decode every one of their frames: heads are
registered after the window they were decoded in, so each repeat missed.
Now a repeat waits for its first sighting's verdict.  What it may not
change is any answer: the samples, the refusals, their wording and the
frame a 400 names equal those of a store that decodes every frame.
"""

from __future__ import annotations

import pytest

from repro.api.ingest import encode_frame, split_frames
from repro.errors import ApiError
from repro.timeseries.store import MetricsStore
from tests.readings import reading


class _Forgetful(dict):
    """A head table that never learns: every frame goes the full way."""

    def __setitem__(self, head, key):
        pass


def _payloads(*frames: bytes) -> list[bytes]:
    payloads, fault = split_frames(b"".join(frames))
    assert fault is None
    return payloads


def _minutes(series: int, minutes: int) -> list[bytes]:
    return _payloads(*(
        encode_frame(
            "execute-count", 60 * minute, float(i + minute),
            {"topology": "t", "component": f"c{i % 7}", "instance": f"i{i}"},
        )
        for minute in range(1, minutes + 1)
        for i in range(series)
    ))


def _verdicts(store: MetricsStore, payloads: list[bytes]):
    """What ``frame_samples`` answers: its samples and refusals, or the
    400 it raises (message and payload)."""
    try:
        samples, rejected = store.frame_samples(payloads)
    except ApiError as exc:
        return "400", str(exc), exc.payload
    return [
        None if sample is None else (sample[0].name, sample[0].tags, *sample[1:])
        for sample in samples
    ], rejected


def _forgetful() -> MetricsStore:
    store = MetricsStore()
    store._heads = _Forgetful()
    return store


def test_three_minutes_of_300_new_series_decode_300_frames():
    payloads = _minutes(300, 3)
    store = MetricsStore()
    result = store.ingest_frames(payloads)
    assert result["acked"] == 900 and result["rejected"] == []
    assert reading(store, "store.frames_decoded") == 300
    assert reading(store, "store.frames_by_head") == 600
    assert len(store) == 300
    full = _forgetful()
    assert full.ingest_frames(payloads) == result
    assert reading(full, "store.frames_decoded") == 900
    assert list(store._series) == list(full._series)
    assert [b.timestamps for b in store._series.values()] == [
        b.timestamps for b in full._series.values()
    ]


H = b'{"op":"write","name":"m","tags":{"a":"b"},"ts":'
OTHER = b'{"op":"write","name":"n","tags":{},"ts":'


@pytest.mark.parametrize("payloads", [
    # The first sighting is refused (not finite): its repeats go the
    # full way, and are accepted there.
    [H + b'60,"v":1e400}', H + b'120,"v":1}', H + b'180,"v":2}'],
    # ... refused for a client-supplied LSN: so is every repeat.
    [b'{"lsn":1,"op":"write","name":"m","tags":{},"ts":60,"v":1}',
     b'{"lsn":1,"op":"write","name":"m","tags":{},"ts":120,"v":1}'],
    # A repeat with a tail outside the grammar goes the full way.
    [H + b'60,"v":1}', H + b'120.0,"v":1}', H + b'180,"v":2}'],
    # Two new heads interleaved, with a non-finite repeat between.
    [H + b'60,"v":1}', OTHER + b'60,"v":1}', H + b'120,"v":1e999}',
     OTHER + b'120,"v":2}', H + b'180,"v":3}'],
    # A payload that is not JSON after a waiting repeat: the 400 names it.
    [H + b'60,"v":1}', H + b'120,"v":1}', b'{"op":'],
    # ... and one before the first sighting of a head that repeats.
    [b'junk', H + b'60,"v":1}', H + b'120,"v":1}'],
    # A head that is not JSON, repeated: the first of them is named.
    [OTHER + b'60,"v":1}', b'{"op" "write","ts":60,"v":1}',
     b'{"op" "write","ts":120,"v":1}'],
])
def test_answers_equal_the_full_way(payloads):
    expected = _verdicts(_forgetful(), payloads)
    assert _verdicts(MetricsStore(), payloads) == expected
    # ... and again on a store that already knows one of the heads.
    warm = MetricsStore()
    warm.frame_samples([OTHER + b'0,"v":0}'])
    assert _verdicts(warm, payloads) == expected


def test_a_refused_first_sighting_leaves_its_repeats_decoded():
    store = MetricsStore()
    store.frame_samples([H + b'60,"v":1e400}', H + b'120,"v":1}', H + b'180,"v":2}'])
    # The second frame passed the gate the full way and registered the
    # head; the third waited on the first and went the full way too.
    assert reading(store, "store.frames_decoded") == 3
    store.frame_samples([H + b'240,"v":1}'])
    assert reading(store, "store.frames_by_head") == 1
