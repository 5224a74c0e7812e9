"""The batched binary ingest endpoint over HTTP.

``POST /metrics/write_batch`` carries WAL-framed samples verbatim;
these tests pin the codec's strict decode errors, the route's ack
contract (per-frame rejection without batch poisoning, LSN offsets on
durable stores), the request-size cap (413) and strict query parsing
(400 on duplicates), the client's Retry-After handling, and the
``BatchWriter``'s size/time auto-flush.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.api.app import CaladriusApp
from repro.api.client import BatchWriter, CaladriusClient
from repro.api.ingest import (
    FRAMES_CONTENT_TYPE,
    decode_frames,
    encode_frame,
    encode_frames,
    merge_stream_lines,
    rebase_refused,
)
from repro.api.server import CaladriusServer
from repro.config import load_config
from repro.durability import DurableMetricsStore
from repro.errors import ApiError
from repro.heron.tracker import TopologyTracker
from repro.timeseries.store import MetricsStore
from tests.clock import ManualClock
from tests.live import poll_until

_HEADER = struct.Struct("<II")


def _bare_config(**ingest_overrides):
    config = load_config({})
    config = replace(config, serving=replace(config.serving, enabled=False))
    if ingest_overrides:
        config = replace(
            config, ingest=replace(config.ingest, **ingest_overrides)
        )
    return config


@pytest.fixture()
def live(tmp_path):
    """A durable app behind the listener, plus a no-retry client."""
    config = _bare_config()
    store = DurableMetricsStore(tmp_path / "data", fsync="always")
    app = CaladriusApp(config, TopologyTracker(), store)
    with CaladriusServer(app, port=0) as server:
        client = CaladriusClient(server.host, server.port, retries=0)
        try:
            yield app, client, store
        finally:
            client.close()
    app.shutdown()
    store.close()


class TestCodec:
    def test_round_trip(self):
        raw = encode_frames(
            [("m", 60, 1.5, {"topology": "t"}), ("m", 120, 2.5, None)]
        )
        frames = decode_frames(raw)
        assert [r["ts"] for r, _ in frames] == [60, 120]
        # The decoded body is the exact payload string that was framed.
        for record, body in frames:
            assert json.loads(body) == record
            assert "lsn" not in record

    def test_truncated_header_names_frame_and_offset(self):
        raw = encode_frame("m", 60, 1.0) + b"\x01\x02"
        with pytest.raises(ApiError) as excinfo:
            decode_frames(raw)
        assert excinfo.value.status == 400
        assert "malformed frame 1" in str(excinfo.value)
        assert excinfo.value.payload["frame"] == 1

    def test_truncated_payload(self):
        raw = encode_frame("m", 60, 1.0)[:-3]
        with pytest.raises(ApiError, match="truncated payload"):
            decode_frames(raw)

    def test_crc_mismatch(self):
        raw = bytearray(encode_frame("m", 60, 1.0))
        raw[-1] ^= 0xFF
        with pytest.raises(ApiError, match="crc32 mismatch"):
            decode_frames(bytes(raw))

    def test_non_json_payload(self):
        payload = b"not json"
        raw = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        with pytest.raises(ApiError, match="payload is not JSON"):
            decode_frames(raw)

    def test_rebase_refused_maps_both_shapes(self):
        indexes = [3, 7, 9]
        streamed = rebase_refused(
            {"frame_start": 1, "frames": 2, "group": 0, "error": "x"},
            indexes,
        )
        assert streamed["frames"] == [7, 9]
        assert "frame_start" not in streamed
        listed = rebase_refused(
            {"frames": [0, 2], "error": "x"}, indexes, shard_id=1
        )
        assert listed["frames"] == [3, 9]
        assert listed["shard_id"] == 1

    def test_merge_stream_lines_folds_commits_and_done(self):
        merged = merge_stream_lines(
            [
                {"commit": {"group": 0, "acked": 2}},
                {"commit": {"group": 1, "acked": 1}},
                {"done": True, "frames": 3, "acked": 3, "rejected": [],
                 "first_lsn": 1, "last_lsn": 3},
            ]
        )
        assert merged["acked"] == 3
        assert merged["first_lsn"] == 1
        assert [c["group"] for c in merged["commits"]] == [0, 1]


class TestWriteBatchRoute:
    def test_acked_batch_reports_lsn_offsets(self, live):
        _, client, store = live
        ack = client.write_batch(
            [("arrivals", 60 * (i + 1), float(i), {"topology": "wc"})
             for i in range(20)]
        )
        assert ack.frames == 20 and ack.acked == 20
        assert ack.rejected == []
        assert ack.last_lsn - ack.first_lsn == 19
        series = store.get("arrivals", {"topology": "wc"})
        assert len(series.timestamps) == 20

    def test_per_frame_rejection_does_not_poison_the_batch(self, live):
        _, client, _ = live
        ack = client.write_batch(
            [
                ("m", 60, 1.0, {"topology": "t"}),
                ("m", 60, 2.0, {"topology": "t"}),  # duplicate ts
                ("m", 120, 3.0, {"topology": "t"}),
            ]
        )
        assert ack.acked == 2
        assert [r["frame"] for r in ack.rejected] == [1]
        assert "increasing timestamp order" in ack.rejected[0]["error"]

    def test_torn_frame_is_a_structured_400(self, live):
        _, client, _ = live
        raw = encode_frame("m", 60, 1.0)[:-2]
        with pytest.raises(ApiError) as excinfo:
            client.write_batch_raw(raw)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["frame"] == 0

    def test_non_json_payload_is_the_decoders_400_and_writes_nothing(self, live):
        """The listener no longer decodes payloads; the store finds the
        defect before it applies anything, worded as ``decode_frames``
        words it — over the socket and through ``handle`` alike."""
        app, client, store = live
        good = encode_frame("m", 60, 1.0)
        junk = b"{not json"
        raw = good + _HEADER.pack(len(junk), zlib.crc32(junk)) + junk + good
        with pytest.raises(ApiError) as expected:
            decode_frames(raw)
        with pytest.raises(ApiError) as excinfo:
            client.write_batch_raw(raw)
        assert excinfo.value.status == 400
        assert str(excinfo.value) == str(expected.value)
        assert excinfo.value.payload["frame"] == 1
        assert excinfo.value.payload["offset"] == len(good)
        status, payload = app.handle("POST", "/metrics/write_batch", {}, raw)
        assert (status, payload["error"]) == (400, str(expected.value))
        assert len(store) == 0 and store.wal.last_lsn == 0

    def test_the_first_malformed_frame_in_body_order_is_reported(self, live):
        """A payload that is not JSON outranks a framing fault behind
        it, as when one decoder found both."""
        app, client, store = live
        good, junk = encode_frame("m", 60, 1.0), b"[1,"
        bad = _HEADER.pack(len(junk), zlib.crc32(junk)) + junk
        # Not JSON at 1 then torn at 2; and torn at 1 with nothing before.
        for body in (good + bad + good[:-2], good + bad[:-1]):
            with pytest.raises(ApiError) as expected:
                decode_frames(body)
            with pytest.raises(ApiError) as excinfo:
                client.write_batch_raw(body)
            assert str(excinfo.value) == str(expected.value)
            assert excinfo.value.payload == {
                "error": str(expected.value), **expected.value.payload
            }
            status, payload = app.handle("POST", "/metrics/write_batch", {}, body)
            assert (status, payload["error"]) == (400, str(expected.value))
        assert len(store) == 0

    def test_empty_body_is_a_400(self, live):
        app, client, _ = live
        # Over HTTP a zero-length body arrives as "no body at all".
        with pytest.raises(ApiError) as excinfo:
            client.write_batch_raw(b"")
        assert excinfo.value.status == 400
        # Handed empty bytes directly, the route names the real defect.
        status, payload = app.handle("POST", "/metrics/write_batch", {}, b"")
        assert status == 400 and "no frames" in payload["error"]

    def test_draining_app_refuses_with_503(self, live):
        app, client, _ = live
        app.lifecycle.begin_drain()
        with pytest.raises(ApiError) as excinfo:
            client.write_batch([("m", 60, 1.0)])
        assert excinfo.value.status == 503

    def test_mismatched_epoch_is_a_fencing_409(self, tmp_path):
        config = _bare_config()
        app = CaladriusApp(
            config, TopologyTracker(), MetricsStore(), shard_id=0, epoch=3
        )
        with CaladriusServer(app, port=0) as server:
            client = CaladriusClient(server.host, server.port, retries=0)
            try:
                with pytest.raises(ApiError) as excinfo:
                    client.write_batch([("m", 60, 1.0)], epoch=2)
                assert excinfo.value.status == 409
                assert excinfo.value.payload.get("fenced") is True
            finally:
                client.close()
        app.shutdown()

    def test_plain_store_acks_without_lsns(self):
        config = _bare_config()
        app = CaladriusApp(config, TopologyTracker(), MetricsStore())
        status, payload = app.handle(
            "POST", "/metrics/write_batch", {},
            encode_frames([("m", 60, 1.0, None)]),
        )
        assert status == 200
        assert payload["acked"] == 1
        assert payload["first_lsn"] is None
        app.shutdown()


class TestMetricsWriteRoute:
    """``POST /metrics/write``: the JSON route hands its sample list to
    the store as one batch too."""

    def test_fifty_samples_cost_one_fsync(self, live):
        _, client, store = live
        before = store.wal.fsyncs
        samples = [[60 * (i + 1), float(i)] for i in range(50)]
        assert client.write_metrics("m", samples, {"topology": "t"}) == 50
        assert store.wal.fsyncs == before + 1
        assert store.wal.last_lsn == 50

    def test_out_of_order_sample_is_the_same_400(self, live):
        _, client, store = live
        with pytest.raises(ApiError) as excinfo:
            client.write_metrics("m", [[120, 1.0], [60, 2.0]])
        assert excinfo.value.status == 400
        assert "got 60 after 120" in str(excinfo.value)
        # Only the in-order sample reached the store and the log.
        assert list(store.get("m").timestamps) == [120]
        assert store.wal.last_lsn == 1

    def test_malformed_sample_writes_nothing(self, live):
        _, client, store = live
        with pytest.raises(ApiError) as excinfo:
            client.write_metrics("m", [[60, 1.0], [120, "x"]])
        assert excinfo.value.status == 400
        assert len(store) == 0 and store.wal.last_lsn == 0


#: Samples both write endpoints refuse by one rule (``write_fields``'):
#: the JSON text of ``ts, v`` and the refusal.
BAD_SAMPLES = [
    ("true, 1.0", "'ts' must be a number"),
    ('"60", 1.0', "'ts' must be a number"),
    ("1e400, 2.0", "'ts' and 'v' must be finite"),
    ('60, "x"', "'v' must be a number"),
    ("60, null", "'v' must be a number"),
    ("60, false", "'v' must be a number"),
]


class TestOneSampleRule:
    """A sample ``POST /metrics/write`` takes is one a ``write_batch``
    frame may carry: the JSON route refuses the whole request (400,
    nothing written), the framed route that frame alone."""

    @pytest.mark.parametrize("sample, error", BAD_SAMPLES)
    def test_metrics_write_refuses_the_request(self, live, sample, error):
        _, client, store = live
        body = b'{"name":"m","samples":[[60,1.0],[%b]]}' % sample.encode()
        status, document, _ = client.exchange("POST", "/metrics/write", body)
        assert (status, document["error"]) == (400, error)
        assert len(store) == 0 and store.wal.last_lsn == 0

    @pytest.mark.parametrize("sample, error", BAD_SAMPLES)
    def test_write_batch_refuses_the_frame(self, live, sample, error):
        _, client, store = live
        payloads = [
            b'{"op":"write","name":"m","tags":{},"ts":%b,"v":%b}' % pair
            for pair in ((b"60", b"1.0"), tuple(sample.encode().split(b", ")))
        ]
        status, document, _ = client.exchange(
            "POST",
            "/metrics/write_batch",
            b"".join(
                _HEADER.pack(len(p), zlib.crc32(p)) + p for p in payloads
            ),
            content_type=FRAMES_CONTENT_TYPE,
        )
        assert status == 200
        assert document["rejected"] == [{"frame": 1, "error": error}]
        assert list(store.get("m").timestamps) == [60]
        assert store.wal.last_lsn == 1


class TestRequestLimits:
    def test_oversized_body_is_a_413(self, tmp_path):
        config = _bare_config(max_body_bytes=1024)
        app = CaladriusApp(config, TopologyTracker(), MetricsStore())
        with CaladriusServer(app, port=0) as server:
            client = CaladriusClient(server.host, server.port, retries=0)
            try:
                with pytest.raises(ApiError) as excinfo:
                    client.write_batch(
                        [("m", 60 * (i + 1), float(i)) for i in range(200)]
                    )
                assert excinfo.value.status == 413
                assert excinfo.value.payload["max_body_bytes"] == 1024
                assert excinfo.value.payload["content_length"] > 1024
            finally:
                client.close()
        app.shutdown()

    def test_duplicate_query_parameter_is_a_400(self):
        config = _bare_config()
        app = CaladriusApp(config, TopologyTracker(), MetricsStore())
        with CaladriusServer(app, port=0) as server:
            client = CaladriusClient(server.host, server.port, retries=0)
            try:
                with pytest.raises(ApiError) as excinfo:
                    client._request(
                        "GET", "/metrics/read?name=a&name=b"
                    )
                assert excinfo.value.status == 400
                assert "duplicate query parameter" in str(excinfo.value)
            finally:
                client.close()
        app.shutdown()


class _ThrottleOnce(BaseHTTPRequestHandler):
    """Answers the first write_batch with 429 + Retry-After, then 200."""

    hits = 0

    def do_POST(self):  # noqa: N802 - http.server API
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        type(self).hits += 1
        if type(self).hits == 1:
            body = json.dumps({"error": "shed", "retry_after": 7}).encode()
            self.send_response(429)
            self.send_header("Retry-After", "7")
        else:
            frames = decode_frames(raw)
            body = json.dumps(
                {"frames": len(frames), "acked": len(frames),
                 "rejected": [], "first_lsn": 1,
                 "last_lsn": len(frames)}
            ).encode()
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # quiet
        pass


class TestRetryAfter:
    def test_write_batch_honors_retry_after_capped(self):
        _ThrottleOnce.hits = 0
        server = ThreadingHTTPServer(("127.0.0.1", 0), _ThrottleOnce)
        # A short poll: shutdown() waits out one poll interval.
        thread = threading.Thread(
            target=server.serve_forever, args=(0.01,), daemon=True
        )
        thread.start()
        clock = ManualClock()
        try:
            client = CaladriusClient(
                "127.0.0.1", server.server_address[1],
                retries=2, backoff_max_seconds=0.5, clock=clock,
            )
            ack = client.write_batch([("m", 60, 1.0)])
            assert ack.acked == 1
            # The server's 7s hint is honored but capped at the
            # client's backoff ceiling — not the exponential guess.
            assert clock.slept == [0.5]
            client.close()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestBatchWriter:
    def test_flushes_when_frame_threshold_crossed(self, live):
        _, client, _ = live
        writer = BatchWriter(client, max_frames=10)
        for i in range(25):
            writer.add("arrivals", 60 * (i + 1), float(i), {"topology": "b"})
        assert len(writer.acks) == 2  # two full batches went out
        assert len(writer) == 5
        writer.close()
        assert sum(ack.acked for ack in writer.acks) == 25

    def test_flushes_when_byte_threshold_crossed(self, live):
        _, client, _ = live
        writer = BatchWriter(client, max_frames=10_000, max_bytes=256)
        count = 0
        while not writer.acks:
            count += 1
            writer.add("bytes", 60 * count, float(count), {"topology": "b2"})
            assert count < 100, "byte threshold never triggered"
        writer.close()
        assert sum(ack.acked for ack in writer.acks) == count

    def test_age_thread_flushes_a_trickle(self, live):
        _, client, _ = live
        with BatchWriter(
            client, max_frames=10_000, max_age_seconds=0.05
        ) as writer:
            writer.add("trickle", 60, 1.0, {"topology": "b3"})
            assert poll_until(lambda: writer.acks, 5), "age-based flush never fired"
        assert sum(ack.acked for ack in writer.acks) == 1

    def test_closed_writer_refuses_adds(self, live):
        _, client, _ = live
        writer = BatchWriter(client)
        writer.close()
        with pytest.raises(ApiError, match="closed"):
            writer.add("m", 60, 1.0)
