"""Streaming group-commit acks on ``write_batch``, and kill -9 durability.

Batches over ``ingest.commit_max_frames`` are answered as streamed
per-commit-group acks; a drain mid-stream keeps the acked prefix.  The
kill -9 test boots ``serve --fsync always`` as a subprocess and asserts
every acknowledged frame survives.  (Plain-route, keep-alive, 413 and
strict-query behaviour of the listener lives in ``test_server_client``,
``test_keepalive`` and ``test_write_batch``.)
"""

from __future__ import annotations

import struct
import time
import zlib
from dataclasses import replace

import pytest

from repro.api.app import CaladriusApp
from repro.api.server import CaladriusServer
from repro.api.client import CaladriusClient
from repro.api.ingest import encode_frame
from repro.config import load_config
from repro.durability import DurableMetricsStore, open_data_dir
from repro.errors import ApiError
from repro.heron.tracker import TopologyTracker
from tests.clock import Call
from tests.live import sigkill_mid_storm, spawn_serve


def _bare_config(**ingest_overrides):
    config = load_config({})
    config = replace(config, serving=replace(config.serving, enabled=False))
    if ingest_overrides:
        config = replace(
            config, ingest=replace(config.ingest, **ingest_overrides)
        )
    return config


@pytest.fixture()
def grouped_service(tmp_path):
    """A durable app behind the listener, commit groups of 10."""
    config = _bare_config(commit_max_frames=10)
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


class TestStreamingAcks:
    def test_small_batch_answers_plain_json(self, grouped_service):
        _, client, _ = grouped_service
        # 10 frames = exactly one commit group: no streaming, no
        # commits list in the answer.
        ack = client.write_batch(
            [("one", 60 * (i + 1), float(i), {"topology": "s"})
             for i in range(10)]
        )
        assert ack.acked == 10
        assert ack.commits == []
        assert ack.last_lsn - ack.first_lsn == 9

    def test_large_batch_streams_group_commits(self, grouped_service):
        _, client, store = grouped_service
        ack = client.write_batch(
            [("many", 60 * (i + 1), float(i), {"topology": "s2"})
             for i in range(35)]
        )
        assert ack.frames == 35 and ack.acked == 35
        # 35 frames in groups of 10 -> 4 commit lines, each carrying
        # its own ack offsets.
        assert [c["group"] for c in ack.commits] == [0, 1, 2, 3]
        assert [c["frames"] for c in ack.commits] == [10, 10, 10, 5]
        assert ack.commits[0]["frame_start"] == 0
        assert ack.commits[3]["frame_start"] == 30
        lsns = [
            (c["first_lsn"], c["last_lsn"]) for c in ack.commits
        ]
        # Contiguous across groups: each group starts where the
        # previous one ended.
        for (_, prev_last), (next_first, _) in zip(lsns, lsns[1:]):
            assert next_first == prev_last + 1
        assert ack.first_lsn == lsns[0][0]
        assert ack.last_lsn == lsns[-1][1]
        series = store.get("many", {"topology": "s2"})
        assert len(series.timestamps) == 35

    def test_rejections_are_rebased_onto_the_batch(self, grouped_service):
        _, client, _ = grouped_service
        entries = [
            ("rebase", 60 * (i + 1), float(i), {"topology": "s3"})
            for i in range(25)
        ]
        entries[12] = ("rebase", 60, 99.0, {"topology": "s3"})  # stale
        ack = client.write_batch(entries)
        assert ack.acked == 24
        assert [r["frame"] for r in ack.rejected] == [12]

    def test_non_json_payload_in_a_later_group_refuses_the_whole_body(
        self, grouped_service
    ):
        """A streamed body is checked whole before its first group
        commits: one 400 naming the frame, nothing applied, no stream."""
        _, client, store = grouped_service
        frames = [
            encode_frame("whole", 60 * (i + 1), float(i), {"topology": "s4"})
            for i in range(35)
        ]
        junk = b'{"op":"write","name":"whole","tags":{},"ts":60,"v":}'
        frames[27] = struct.pack("<II", len(junk), zlib.crc32(junk)) + junk
        with pytest.raises(ApiError) as excinfo:
            client.write_batch_raw(b"".join(frames))
        assert excinfo.value.status == 400
        assert excinfo.value.payload["frame"] == 27
        assert excinfo.value.payload["offset"] == sum(map(len, frames[:27]))
        assert "payload is not JSON" in str(excinfo.value)
        assert len(store) == 0 and store.wal.last_lsn == 0
        # The connection and the service are fine: the repaired body lands.
        frames[27] = encode_frame("whole", 60 * 28, 27.0, {"topology": "s4"})
        assert client.write_batch_raw(b"".join(frames)).acked == 35

    def test_drain_mid_stream_keeps_the_acked_prefix(self, grouped_service):
        app, client, store = grouped_service
        original = app.handle_write_batch_frames
        calls = {"n": 0}

        def drain_after_second_group(frames, headers=None):
            result = original(frames, headers)
            calls["n"] += 1
            if calls["n"] == 2:
                app.lifecycle.begin_drain()
            return result

        app.handle_write_batch_frames = drain_after_second_group
        try:
            ack = client.write_batch(
                [("racing", 60 * (i + 1), float(i), {"topology": "s4"})
                 for i in range(35)]
            )
        finally:
            app.handle_write_batch_frames = original
        # Groups 0 and 1 committed before the drain began; groups 2
        # and 3 were refused with a retryable 503 — and the response
        # still arrived as a clean 200 stream.
        assert ack.acked == 20
        assert len(ack.refused) == 2
        for refusal in ack.refused:
            assert refusal["status"] == 503
            assert "draining" in refusal["error"]
        assert {r["frame_start"] for r in ack.refused} == {20, 30}
        # The acked prefix is really in the store.
        series = store.get("racing", {"topology": "s4"})
        assert len(series.timestamps) == 20

    def test_crash_mid_stream_is_reported_in_band(self, grouped_service):
        """A bug in one commit group is not a transport error.

        The 200 head is already out, so the crash rides the stream as a
        status-500 refusal; later groups are not attempted (they would
        land ahead of the crashed group's retry) and the acked prefix
        stands.
        """
        app, client, store = grouped_service
        original = app.handle_write_batch_frames
        calls = {"n": 0}

        def crash_on_second_group(frames, headers=None):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("model bug")
            return original(frames, headers)

        app.handle_write_batch_frames = crash_on_second_group
        try:
            ack = client.write_batch(
                [("crashy", 60 * (i + 1), float(i), {"topology": "s6"})
                 for i in range(35)]
            )
        finally:
            app.handle_write_batch_frames = original
        assert calls["n"] == 2
        assert ack.acked == 10
        assert [r["status"] for r in ack.refused] == [500, 500, 500]
        assert {r["type"] for r in ack.refused} == {"RuntimeError"}
        series = store.get("crashy", {"topology": "s6"})
        assert len(series.timestamps) == 10
        assert app.lifecycle.wait_idle(5)

    def test_batch_racing_graceful_shutdown(self, tmp_path):
        """A drain during an in-flight batch never truncates a response.

        The gauge brackets the whole stream, so shutdown_gracefully
        must wait for the batch to finish (acked or refused) before
        the socket closes.
        """
        config = _bare_config(commit_max_frames=10)
        store = DurableMetricsStore(tmp_path / "data", fsync="always")
        app = CaladriusApp(config, TopologyTracker(), store)
        server = CaladriusServer(app, port=0)
        server.start()
        client = CaladriusClient(server.host, server.port, retries=0)
        send = Call(client.write_batch, [
            ("shutdown-race", 60 * (i + 1), float(i), {"topology": "s5"})
            for i in range(35)
        ])
        time.sleep(0.02)  # a real socket: let the batch get in flight
        assert server.shutdown_gracefully(drain_timeout=10) is True
        try:
            outcome = send.result()
        except ApiError as exc:
            outcome = exc
        client.close()
        app.shutdown()
        store.close()
        # Either the batch beat the drain (all acked) or the drain
        # refused a suffix — but the response was always complete and
        # every acked frame is in the store.
        if isinstance(outcome, ApiError):
            assert outcome.status == 503
        else:
            acked = outcome.acked
            refused_frames = sum(
                len(r.get("frames", [])) if isinstance(r.get("frames"), list)
                else r.get("frames", 0)
                for r in outcome.refused
            )
            assert acked + refused_frames + len(outcome.rejected) == 35
            if acked:
                series = store.get(
                    "shutdown-race", {"topology": "s5"}
                )
                assert len(series.timestamps) == acked


class TestKillNine:
    def test_acked_batches_survive_sigkill(self, tmp_path):
        data_dir = tmp_path / "data"
        process, port = spawn_serve(data_dir)

        def write(client, batch):
            base = batch * 1000
            ack = client.write_batch(
                [("storm", base + i, float(base + i),
                  {"topology": "crashy", "batch": str(batch)})
                 for i in range(10)]
            )
            return ack.acked == 10 and not ack.refused

        acked = sigkill_mid_storm(process, port, write)  # fully acknowledged

        store, _ = open_data_dir(data_dir)
        try:
            for batch in acked:
                series = store.get(
                    "storm", {"topology": "crashy", "batch": str(batch)}
                )
                base = batch * 1000
                assert list(series.timestamps) == [
                    base + i for i in range(10)
                ], f"acknowledged batch {batch} lost after kill -9"
        finally:
            store.close()
