"""Which refusal wins when a record breaks two rules.

A ``write`` record is checked by the ingest gate
(:func:`~repro.timeseries.store.frame_sample`: object, op, no ``lsn``, a
non-empty name, then the type rules, a finite value and a compact
object) and, on replay, by the type rules alone
(:func:`~repro.timeseries.store.write_fields` and the key the store
builds).  Where those rules are checked may move — the tag rule lives
where a key is built — but a record with two defects must keep getting
the same refusal, in the same words, and replay must skip and count it.
Each row below breaks two rules; the columns are the ingest refusal and
the type-rule refusal replay applies.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.durability.store import replay_frames
from repro.errors import MetricsError
from repro.timeseries.store import MetricsStore, write_fields
from tests.durability.frame_oracle import frame

NAME = "'name' must be a non-empty string"
TAGS = "'tags' must map strings to strings"
TS = "'ts' must be a number"
V = "'v' must be a number"
FINITE = "'ts' and 'v' must be finite"
FRAME_NAME = "frame 'name' must be a non-empty string"
LSN = "frame must not carry an 'lsn' field; the server assigns LSNs"
V_FINITE = "frame 'v' must be finite"
COMPACT = "frame payload must be a compact JSON object"

#: ``(id, record body, ingest refusal, replay's type-rule refusal)``.
TABLE = [
    ("tag-value-number, ts-string",
     '{"op":"write","name":"m","tags":{"a":1},"ts":"60","v":1.0}', TAGS, TAGS),
    ("tags-number, lsn",
     '{"op":"write","lsn":3,"name":"m","tags":5,"ts":60,"v":1.0}', LSN, TAGS),
    ("v-boolean, name-empty",
     '{"op":"write","name":"","tags":{},"ts":60,"v":true}', FRAME_NAME, V),
    ("name-number, tag-value-number",
     '{"op":"write","name":7,"tags":{"a":1},"ts":60,"v":1.0}', NAME, NAME),
    ("name-null, tags-list",
     '{"op":"write","name":null,"tags":[["a","b"]],"ts":60,"v":1.0}',
     FRAME_NAME, NAME),
    ("name-list, ts-boolean",
     '{"op":"write","name":["m"],"tags":{},"ts":true,"v":1.0}', NAME, NAME),
    ("tag-value-list, v-string",
     '{"op":"write","name":"m","tags":{"a":["x"]},"ts":60,"v":"1"}', TAGS, TAGS),
    ("tag-value-null, v-boolean",
     '{"op":"write","name":"m","tags":{"a":null},"ts":60,"v":false}', TAGS, TAGS),
    ("tags-list, ts-string",
     '{"op":"write","name":"m","tags":[["a","b"]],"ts":"60","v":1.0}', TAGS, TAGS),
    ("tag-value-number, v-infinite",
     '{"op":"write","name":"m","tags":{"a":1},"ts":60,"v":1e999}', TAGS, TAGS),
    ("tag-value-object, ts-infinite",
     '{"op":"write","name":"m","tags":{"a":{}},"ts":1e999,"v":1.0}', TAGS, TAGS),
    ("tag-value-number, v-overflows",
     '{"op":"write","name":"m","tags":{"a":2},"ts":60,"v":1%s}' % ("0" * 400),
     TAGS, TAGS),
    ("tags-false, ts-string",
     '{"op":"write","name":"m","tags":false,"ts":"60","v":1.0}', TS, TS),
    ("ts-string, v-string",
     '{"op":"write","name":"m","tags":{},"ts":"60","v":"1"}', TS, TS),
    ("ts-infinite, v-boolean",
     '{"op":"write","name":"m","tags":{},"ts":1e999,"v":true}', V, V),
    ("ts-infinite, v-infinite",
     '{"op":"write","name":"m","tags":{},"ts":-1e999,"v":1e999}', FINITE, FINITE),
    ("second-tag-bad, v-infinite",
     '{"op":"write","name":"m","tags":{"topology":"t","b":3},"ts":60,"v":1e999}',
     TAGS, TAGS),
    ("v-infinite, padded",
     ' {"op":"write","name":"m","tags":{},"ts":60,"v":-1e999}', V_FINITE, None),
    ("tag-value-number, padded",
     ' {"op":"write","name":"m","tags":{"a":1},"ts":60,"v":1.0}', TAGS, None),
    ("padded, trailing-space",
     ' {"op":"write","name":"m","tags":{},"ts":60,"v":1.0} ', COMPACT, None),
    ("lsn, op-missing",
     '{"lsn":5,"name":"m","tags":{},"ts":60,"v":1.0}',
     "unsupported frame op None", None),
    ("op-clear, tag-value-number",
     '{"op":"clear","name":"m","tags":{"a":1},"ts":60,"v":1.0}',
     "unsupported frame op 'clear'", None),
    ("not-an-object", '[{"op":"write"}]', "frame payload must be a JSON object",
     None),
]
ROWS = [pytest.param(body, ingest, rule, id=name) for name, body, ingest, rule in TABLE]
#: Rows replay reads as a ``write`` record: it must refuse each one.
WRITES = [row for row in TABLE if row[3] is not None]


def _ingest_refusal(store: MetricsStore, body: str) -> str:
    samples, rejected = store.frame_samples([body.encode("utf8")])
    assert samples == [None]
    (refusal,) = rejected
    return refusal["error"]


def _rule_refusal(record) -> str:
    """What replay's type rules say of a decoded record."""
    try:
        name, tags, _, _ = write_fields(record)
        MetricsStore().key_of(name, tags)
    except MetricsError as exc:
        return str(exc)
    raise AssertionError("the record passed the type rules")


def _journal(bodies: list[str], first_lsn: int = 1) -> bytes:
    """The bodies as journal frames, an LSN spliced into each."""
    return b"".join(
        frame(b'{"lsn":%d,%b' % (lsn, body.encode("utf8")[1:]))
        for lsn, body in enumerate(bodies, first_lsn)
    )


@pytest.mark.parametrize("body, ingest, rule", ROWS)
def test_the_ingest_gate_names_the_winning_refusal(body, ingest, rule):
    assert _ingest_refusal(MetricsStore(), body) == ingest


@pytest.mark.parametrize("body, ingest, rule", ROWS)
def test_a_store_that_knows_the_series_names_the_same_refusal(body, ingest, rule):
    store = MetricsStore()
    store.write("m", 30, 0.5, {"a": "x"})
    store.write("m", 30, 0.5)
    assert _ingest_refusal(store, body) == ingest


def test_one_batch_refuses_every_row_at_its_index():
    payloads = [body.encode("utf8") for _, body, _, _ in TABLE]
    good = b'{"op":"write","name":"m","tags":{},"ts":60,"v":1.0}'
    samples, rejected = MetricsStore().frame_samples(payloads + [good])
    assert rejected == [
        {"frame": index, "error": ingest}
        for index, (_, _, ingest, _) in enumerate(TABLE)
    ]
    assert [sample is None for sample in samples] == [True] * len(TABLE) + [False]


@pytest.mark.parametrize(
    "body, rule", [pytest.param(body, rule, id=name) for name, body, _, rule in WRITES]
)
def test_the_type_rules_name_the_winning_refusal(body, rule):
    assert _rule_refusal(json.loads(body)) == rule


@pytest.mark.parametrize(
    "body", [pytest.param(body, id=name) for name, body, _, _ in WRITES]
)
def test_replay_skips_and_counts_each_refused_record(body):
    store = MetricsStore()
    walk = replay_frames(store, io.BytesIO(_journal([body])))
    assert (walk.records, walk.decoded, walk.skipped, walk.replayed) == (1, 1, 1, 0)
    assert walk.fault is None and len(store) == 0


def test_replay_of_every_row_in_one_log_skips_them_all_and_goes_on():
    good = '{"op":"write","name":"m","tags":{"a":"x"},"ts":%d,"v":1.0}'
    bodies = [good % 30] + [body for _, body, _, _ in WRITES] + [good % 60]
    store = MetricsStore()
    walk = replay_frames(store, io.BytesIO(_journal(bodies)))
    assert walk.records == len(bodies)
    assert walk.skipped == len(WRITES)
    assert walk.replayed == 2
    # The good series' first record is decoded, its second resolved by
    # its head; every refused record is decoded and learns nothing.
    assert walk.decoded == 1 + len(WRITES)
    assert walk.last_lsn == len(bodies)
    assert store.get("m", {"a": "x"}).to_pairs() == [(30, 1.0), (60, 1.0)]
