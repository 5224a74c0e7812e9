"""Per-series record heads: a warm head table changes the cost, nothing else.

``write_batch`` resolves a payload whose *head* (every byte before the
last ``,"ts":``) the store has validated before, and whose *tail* is in a
strict grammar, without decoding it.  The properties here hold that short
cut to the long way round: a service with a warm table, the same service
with the table disabled (every frame decoded and gated) and a model of
the parent commit's ``write_batch`` (decode every payload, gate every
record, journal the text) must give the same answers, the same store and
the same log — over payloads built to sit on every edge of the grammar.
The client encoder's memo gets the same treatment against ``json.dumps``.
"""

from __future__ import annotations

import itertools
import json
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ingest
from repro.api.app import CaladriusApp
from repro.api.ingest import encode_frame, encode_frames, split_frames
from repro.config import load_config
from repro.durability import DurableMetricsStore, store_content_hash
from repro.durability import wal as wal_module
from repro.errors import ApiError, MetricsError
from repro.heron.tracker import TopologyTracker
from repro.timeseries import store as store_module
from repro.timeseries.store import MetricsStore, frame_sample
from tests.durability.frame_oracle import HEADER, frame
from tests.readings import reading


def _frames(store) -> tuple[int, int]:
    """How many ingest frames were resolved by head, and how many decoded."""
    return (
        reading(store, "store.frames_by_head"),
        reading(store, "store.frames_decoded"),
    )


CONFIG = load_config({})
CONFIG = replace(CONFIG, serving=replace(CONFIG.serving, enabled=False))


# ----------------------------------------------------------------------
# The three services under comparison
# ----------------------------------------------------------------------
class _Forgetful(dict):
    """A head table that never learns: every frame goes the full way."""

    def __setitem__(self, head, key):
        pass


class Service:
    """A durable store behind the app's ``write_batch`` route."""

    def __init__(self, directory: Path, learn: bool = True) -> None:
        self.directory = directory
        self.store = DurableMetricsStore(directory, fsync="never")
        if not learn:
            self.store._heads = _Forgetful()
        self.app = CaladriusApp(CONFIG, TopologyTracker(), self.store)

    def write_batch(self, payloads):
        return self.app.handle(
            "POST", "/metrics/write_batch", body=b"".join(map(frame, payloads))
        )

    def log(self) -> bytes:
        self.store.flush()
        segments = sorted((self.directory / "wal").glob("wal-*.log"))
        return b"".join(path.read_bytes() for path in segments)

    def close(self) -> None:
        self.app.shutdown()
        self.store.close()


class ParentModel:
    """``write_batch`` as the parent commit served it, in memory."""

    def __init__(self) -> None:
        self.store = MetricsStore()
        self.lsn = 0
        self.journal = b""

    def write_batch(self, payloads):
        records, offset = [], 0
        for idx, payload in enumerate(payloads):
            try:
                records.append(json.loads(payload.decode("utf8")))
            except ValueError as exc:
                return 400, {
                    "error": f"malformed frame {idx} at byte {offset}: "
                    f"payload is not JSON ({exc})",
                    "frame": idx,
                    "offset": offset,
                }
            offset += HEADER.size + len(payload)
        if not payloads:
            return 400, {"error": "write_batch body contains no frames"}
        rejected, valid = [], []
        for idx, (record, payload) in enumerate(zip(records, payloads)):
            body = payload.decode("utf8")
            try:
                valid.append((idx, frame_sample(record, body), body))
            except MetricsError as exc:
                rejected.append({"frame": idx, "error": str(exc)})
        errors = self.store.apply_sample_batch([entry for _, entry, _ in valid])
        first = self.lsn + 1
        for (idx, _, body), error in zip(valid, errors):
            if error is not None:
                rejected.append({"frame": idx, "error": error})
                continue
            self.lsn += 1
            self.journal += frame(
                ('{"lsn":%d,%s' % (self.lsn, body[1:])).encode("utf8")
            )
        rejected.sort(key=lambda entry: entry["frame"])
        acked = len(payloads) - len(rejected)
        return 200, {
            "frames": len(payloads),
            "acked": acked,
            "rejected": rejected,
            "first_lsn": first if acked else None,
            "last_lsn": self.lsn if acked else None,
        }


def _canonical(answer) -> str:
    return json.dumps(answer, sort_keys=True)


def _assert_same_store(one: MetricsStore, other: MetricsStore) -> None:
    assert store_content_hash(one) == store_content_hash(other)
    assert list(one._series) == list(other._series)  # creation order too
    for topology in {key.topology for key in one._series} | {None}:
        assert one.data_version(topology) == other.data_version(topology)


def run_differential(batches) -> Service:
    """Feed ``batches`` to all three; returns the (closed) warm service."""
    with tempfile.TemporaryDirectory() as scratch:
        warm = Service(Path(scratch) / "warm")
        cold = Service(Path(scratch) / "cold", learn=False)
        parent = ParentModel()
        try:
            for payloads in batches:
                expected = _canonical(parent.write_batch(payloads))
                assert _canonical(warm.write_batch(payloads)) == expected
                assert _canonical(cold.write_batch(payloads)) == expected
            _assert_same_store(warm.store, parent.store)
            _assert_same_store(cold.store, parent.store)
            assert warm.log() == cold.log() == parent.journal
            assert reading(cold.store, "store.frames_by_head") == 0
        finally:
            warm.close()
            cold.close()
        # What was journaled is what was validated: the log replays to
        # the live state.
        with DurableMetricsStore(warm.directory) as reopened:
            assert store_content_hash(reopened) == store_content_hash(parent.store)
        return warm


# ----------------------------------------------------------------------
# Payloads on the edges of the grammar
# ----------------------------------------------------------------------
SERIES = [
    ("m", {}),
    ("arrivals", {"topology": "wc", "instance": "i0"}),
    ("arrivals", {"topology": "wc", "instance": "i1"}),
    ('we,"ts":rd', {"topology": "wc", "k": 'v,"ts":60,"v":1.0}'}),
    ("lsn", {"lsn": '"lsn":3', "topology": "t2"}),
    ("100%d%%", {"p%s": "%", "topology": "t2"}),
    ("naïve-Ω ", {"ключ": "値", "topology": "wc"}),
    ("nested", {"topology": "wc", "ts": "60", "v": "1"}),
    ('q"uo\\te\n', {"a": "\t", "b": "\\"}),
]
TS_PLAIN = [str(60 * minute) for minute in range(1, 9)]
TS_ODD = [
    "60.0", "6e1", "6E1", "1234567890123456789", "123456789012345678",
    "-0", "0", "-60", "01", "1_0", " 60", "+60", "NaN", "Infinity", "true",
    '"60"', "0x3c", "６０", "", "9" * 5000,
]
V_PLAIN = ["1.5", "2", "0", "0.25", "1e5", "1E-2", "-3.5e+2"]
V_ODD = [
    "-0", "-0.0", "-0e0", "1e999", "-1e999", "01", "1_0", " 1", "+1", "inf",
    "nan", "NaN", "Infinity", "-Infinity", ".5", "5.", "1e", "1e+", "true",
    "null", '"1"', "1" + "0" * 400, "0.1" + "1" * 40, "1.0 ", "", "1" * 5000,
    "１",
]
TRAILERS = ["", " ", "\n", "}", "x", ",", "\udcff"]  # the last: a raw 0xFF byte
JUNK = [
    b"", b"not json", b"[1,2]", b"5", b'"s"', b"null", b"{}", b"\xff\xfe",
    b'{"op":"write"}',
    b'{"op":"write","name":"\xff","tags":{},"ts":60,"v":1.0}',
    b'{"op":"write","name":"m","tags":{},"ts":60,"v":1.0}\xff',
    b'{"op":"write","name":"m","tags":{},"v":1.0,"ts":60}',
    b',"ts":60,"v":1.0}',
]
#: Styles whose payloads pass the gate with a grammatical tail: the ones
#: that reach the head table.
LEARNABLE = (0, 1, 2, 3, 4, 5)


def head(series: int, style: int) -> str:
    """One way a client might spell a series' record up to ``,"ts":``."""
    name, tags = SERIES[series]
    dumps = json.dumps
    compact = {"separators": (",", ":")}
    if style == 1:  # raw UTF-8 instead of \\u escapes
        return '{"op":"write","name":%s,"tags":%s' % (
            dumps(name, ensure_ascii=False),
            dumps(tags, ensure_ascii=False, **compact),
        )
    if style == 2:  # the client's own tag order
        tags = dict(reversed(list(tags.items())))
    named = '"name":%s,"tags":%s' % (dumps(name), dumps(tags, **compact))
    if style == 3:  # whitespace anywhere JSON allows it
        return '{ "op" : "write", "name": %s, "tags": %s ' % (
            dumps(name), dumps(tags)
        )
    if style == 4:  # duplicate top-level key: the last one wins
        return '{"op":"write","name":"shadowed",' + named
    if style == 5:  # earlier ts/v that the tail's override
        return '{"op":"write","ts":5,"v":0.5,' + named
    if style == 6:  # a client-supplied lsn
        return '{"lsn":7,"op":"write",' + named
    if style == 7:
        return '{"op":"clear",' + named
    if style == 8:  # valid JSON, but nowhere to splice an LSN
        return ' {"op":"write",' + named
    if style == 9:  # the last "ts" key belongs to a nested object
        return '{"op":"write",' + named + ',"x":{"y":1'
    return '{"op":"write",' + named


def payload(series, style, ts, value, trailer="") -> bytes:
    text = '%s,"ts":%s,"v":%s}%s' % (head(series, style), ts, value, trailer)
    return text.encode("utf8", "surrogateescape")


#: One accepted sample per learnable spelling of every series.
WARM_UP = [
    payload(series, style, "30", "0.5")
    for style in LEARNABLE
    for series in range(len(SERIES))
]

series_ids = st.integers(0, len(SERIES) - 1)
plain = st.builds(
    payload,
    series_ids,
    st.sampled_from(LEARNABLE),
    st.sampled_from(TS_PLAIN),
    st.sampled_from(V_PLAIN),
)
odd = st.builds(
    payload,
    series_ids,
    st.integers(0, 9),
    st.sampled_from(TS_PLAIN + TS_ODD),
    st.sampled_from(V_PLAIN + V_ODD),
    st.sampled_from(TRAILERS[:1] * 6 + TRAILERS),
)
batches_strategy = st.lists(
    st.lists(
        st.one_of(plain, plain, plain, odd, odd, st.sampled_from(JUNK)),
        max_size=8,
    ),
    min_size=1,
    max_size=6,
)


class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(batches_strategy, st.booleans())
    def test_warm_table_equals_full_path_equals_parent(self, batches, warmed):
        run_differential(([WARM_UP] if warmed else []) + batches)

    def test_every_edge_after_a_warm_up(self):
        """Deterministic: each odd timestamp, value, spelling and trailer
        between two plain samples of a series whose head is registered —
        what a mutation that parses the tail with bare ``int``/``float``
        trips over."""
        minutes = iter(range(60, 10**9, 60))
        batches = [WARM_UP]

        def around(odd_payload, series=1):
            batches.append([
                payload(series, 0, next(minutes), "1.5"),
                odd_payload,
                payload(series, 2, next(minutes), "2"),
            ])

        for value in V_ODD:
            around(payload(2, 0, next(minutes), value))
        for trailer in TRAILERS[1:]:
            around(payload(2, 0, next(minutes), "1.5", trailer))
        for series in range(len(SERIES)):
            for style in range(10):
                around(payload(series, style, next(minutes), "1.5"), series)
        for junk in JUNK:
            around(junk)
        for ts in TS_ODD:  # last: an accepted 19-digit stamp ends series 2
            around(payload(2, 0, ts, "1.5"))
        warm = run_differential(batches)
        assert reading(warm.store, "store.frames_by_head") > 2 * (len(batches) - 1)

    def test_a_batch_with_a_non_json_payload_applies_nothing(self, tmp_path):
        service = Service(tmp_path)
        try:
            service.write_batch(WARM_UP)
            before = store_content_hash(service.store), service.log()
            good = payload(1, 0, "60", "1.5")
            status, answer = service.write_batch([good, good[:-1], good])
            assert (status, answer["frame"]) == (400, 1)
            assert answer["offset"] == HEADER.size + len(good)
            assert "payload is not JSON" in answer["error"]
            assert (store_content_hash(service.store), service.log()) == before
        finally:
            service.close()


# ----------------------------------------------------------------------
# The counting seam, and the tables' bounds
# ----------------------------------------------------------------------
def _minute(minute: int, series: int = 300) -> list[bytes]:
    entries = [
        ("emit-count", 60 * minute, float(i), {"topology": "wc", "instance": f"i{i}"})
        for i in range(series - 1)
    ]
    payloads, fault = split_frames(encode_frames(entries))
    assert fault is None
    # One series whose tags hold a "ts" key: its head has two markers,
    # and only the last one splits it.  (Splitting at the first is
    # answer-preserving — the strict tail never matches from there — so
    # the differential cannot see it; the decode count here does.)
    return payloads + [payload(7, 0, 60 * minute, "1.0")]


class TestCounters:
    def test_a_second_minute_decodes_nothing(self):
        store = MetricsStore()
        with mock.patch.object(
            wal_module.json, "loads", wraps=json.loads
        ) as loads:
            first = store.ingest_frames(_minute(1))
            assert first["acked"] == 300
            assert _frames(store) == (0, 300)
            # First sight is decoded a window at a time, not per payload.
            assert loads.call_count == -(-300 // wal_module._WINDOW_FRAMES)
            loads.reset_mock()
            second = store.ingest_frames(_minute(2))
            assert second["acked"] == 300
            assert _frames(store) == (300, 300)
            assert loads.call_count == 0

    def test_a_refused_head_is_never_learned(self):
        store = MetricsStore()
        refused = [payload(1, 6, "60", "1.0"), payload(1, 7, "60", "1.0")]
        for _ in range(3):
            result = store.ingest_frames(refused)
            assert [r["frame"] for r in result["rejected"]] == [0, 1]
        assert reading(store, "store.frames_by_head") == 0 and not store._heads

    def test_a_stale_sample_on_a_known_head_is_still_refused(self):
        store = MetricsStore()
        store.ingest_frames([payload(1, 0, "120", "1.0")])
        result = store.ingest_frames([payload(1, 0, "60", "1.0")])
        assert reading(store, "store.frames_by_head") == 1
        assert "increasing timestamp order" in result["rejected"][0]["error"]


class TestBounds:
    def test_tables_stay_bounded_and_clear_empties_them(self, monkeypatch):
        monkeypatch.setattr(store_module, "_INTERN_SLACK", 64)
        store = MetricsStore()
        tags = {f"k{i}": "v" for i in range(6)}
        orders = itertools.islice(itertools.permutations(tags.items()), 400)
        for round_, order in enumerate(orders):
            # A writer that permutes its tag order: one series, 400 heads.
            frames = [encode_frame("permuted", 60 + round_, 1.0, dict(order))]
            if round_ % 40 == 0:
                # ...and one that invents series that never land: the
                # junk frame refuses the batch after they were checked.
                frames += [
                    encode_frame("invented", 60, 1.0, {"n": f"{round_}-{i}"})
                    for i in range(30)
                ]
                with pytest.raises(ApiError, match="payload is not JSON"):
                    store.ingest_frames(split_frames(b"".join(frames))[0] + [b"junk"])
                del frames[1:]
            assert store.ingest_frames(split_frames(b"".join(frames))[0])["acked"] == 1
            assert len(store) == 1
            assert len(store._heads) <= 2 + 64 and len(store._interned) <= 2 + 64
        assert reading(store, "store.frames_decoded") > 400
        assert store._heads and store._interned
        store.clear()
        assert not store._heads and not store._interned

    def test_encoder_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(ingest, "_HEAD_MEMO_MAX", 8)
        monkeypatch.setattr(ingest, "_head_memo", {})
        for i in range(50):
            encode_frame("m", 60, 1.0, {"i": str(i)})
            assert len(ingest._head_memo) <= 8
        assert ingest._head_memo


# ----------------------------------------------------------------------
# The client encoder against json.dumps
# ----------------------------------------------------------------------
def parent_encode_frame(name, timestamp, value, tags=None) -> bytes:
    """``encode_frame`` as the parent commit wrote it."""
    record = {
        "op": "write",
        "name": name,
        "tags": dict(tags) if tags else {},
        "ts": int(timestamp),
        "v": float(value),
    }
    return frame(json.dumps(record, separators=(",", ":")).encode("utf8"))


any_text = st.text(st.characters(), max_size=6)  # surrogates included
scalars = st.one_of(
    any_text, st.integers(-5, 5), st.booleans(), st.none(),
    st.floats(allow_nan=True), st.sampled_from([10**400, "1.5", "x", 1e22]),
)
names = st.one_of(any_text, any_text, scalars, st.lists(st.integers(), max_size=2))
tag_maps = st.one_of(
    st.none(),
    st.dictionaries(any_text, any_text, max_size=3),
    st.dictionaries(any_text, any_text, max_size=3),
    st.dictionaries(scalars, scalars, max_size=2),
    st.dictionaries(any_text, st.lists(st.integers(), max_size=2), max_size=2),
    st.lists(st.tuples(any_text, any_text), max_size=2),
    st.sampled_from([0, 5, "ab", ((1, 2),)]),
)
entries_strategy = st.lists(
    st.tuples(names, scalars, scalars, tag_maps), min_size=1, max_size=5
)


def _outcome(encode, entry):
    try:
        return encode(*entry)
    except Exception as exc:  # the comparison is on the type
        return type(exc)


class TestEncoder:
    @settings(max_examples=300, deadline=None)
    @given(entries_strategy)
    def test_bytes_and_exceptions_equal_json_dumps(self, entries):
        # Twice over, so the second pass is served from the memo.
        for entry in entries + entries:
            assert _outcome(encode_frame, entry) == _outcome(
                parent_encode_frame, entry
            )

    def test_a_series_renders_its_head_once(self):
        tags = {"topology": "wc", "instance": "only-here"}
        with mock.patch.object(
            ingest, "write_head", wraps=ingest.write_head
        ) as render:
            frames = [encode_frame("memo", 60 * i, i / 7, tags) for i in range(50)]
        assert render.call_count == 1
        assert frames == [
            parent_encode_frame("memo", 60 * i, i / 7, tags) for i in range(50)
        ]


# ----------------------------------------------------------------------
# Validation outside the journal lock
# ----------------------------------------------------------------------
def test_concurrent_writers_and_a_reader_equal_sequential_ingest(tmp_path):
    """Two threads feed overlapping series (the same sample wherever
    they overlap, so whichever lands first the content is one thing)
    while a third reads: the store ends as sequential ingest leaves it
    and the log — apply order is journal order — replays to it."""
    minutes, stop, failures = 30, threading.Event(), []

    def batches(series: range):
        return [
            split_frames(encode_frames([
                ("emit-count", 60 * minute, float(i * minute),
                 {"topology": "wc", "instance": f"i{i}"})
                for i in series
            ]))[0]
            for minute in range(1, minutes + 1)
        ]

    def write(store, series):
        try:
            for payloads in batches(series):
                store.ingest_frames(payloads)
        except Exception as exc:  # surfaced below
            failures.append(exc)

    def read(store):
        try:
            while not stop.is_set():
                for series in store.query("emit-count", {"topology": "wc"}).values():
                    stamps = list(series.timestamps)
                    assert stamps == sorted(set(stamps))
        except Exception as exc:
            failures.append(exc)

    sequential = MetricsStore()
    write(sequential, range(0, 60))
    write(sequential, range(30, 90))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with DurableMetricsStore(tmp_path, fsync="never") as store:
            threads = [
                threading.Thread(target=write, args=(store, range(0, 60))),
                threading.Thread(target=write, args=(store, range(30, 90))),
            ]
            reader = threading.Thread(target=read, args=(store,))
            for thread in (*threads, reader):
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stop.set()
            reader.join(timeout=60)
            assert not any(t.is_alive() for t in (*threads, reader))
            assert failures == []
            assert store_content_hash(store) == store_content_hash(sequential)
            assert store.data_version("wc") == sequential.data_version("wc")
            assert store.wal.last_lsn == 90 * minutes
    finally:
        sys.setswitchinterval(interval)
    with DurableMetricsStore(tmp_path) as reopened:
        assert reopened.recovery.skipped_records == 0
        assert store_content_hash(reopened) == store_content_hash(sequential)
