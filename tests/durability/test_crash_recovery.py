"""End-to-end crash recovery: a real server, a real ``kill -9``.

The harness boots ``caladrius serve --data-dir … --fsync always`` as a
subprocess, pours metrics writes into it over HTTP, hard-kills it mid
write storm, then restarts it on the same data directory and asserts
every write the server *acknowledged* (HTTP 200) is served and that the
recovered series take writes again; both checks share that one kill and
restart.  A second scenario sends SIGTERM instead
and asserts the graceful path: exit code 0, a final checkpoint on disk,
and a recovery report with nothing left to replay.
"""

from __future__ import annotations

import signal
import subprocess

import pytest

from repro.api.client import CaladriusClient
from repro.durability import open_data_dir
from tests.live import sigkill_mid_storm, spawn_serve


@pytest.fixture(scope="class")
def killed_and_restarted(tmp_path_factory):
    """The one real ``kill -9``: every crash point of the journal is
    explored in-process (``test_crash_points.py``); this checks the real
    process, the real disk and the real restart.

    Yields the restarted server's client, the batch ids the killed server
    acknowledged, and what the restarted server served for each of them
    before any test wrote to it.
    """
    data_dir = tmp_path_factory.mktemp("kill9") / "data"
    process, port = spawn_serve(data_dir)

    def write(client, batch):
        base = batch * 1000
        return client.write_metrics(
            "storm",
            [(base + i, float(base + i)) for i in range(10)],
            {"topology": "crashy", "batch": str(batch)},
        )

    acked = sigkill_mid_storm(process, port, write)  # the ids it said yes to

    process, port = spawn_serve(data_dir)
    try:
        client = CaladriusClient("127.0.0.1", port, retries=0)
        client.wait_ready(timeout=20)
        served = {}
        for batch in acked:
            (series,) = client.read_metrics(
                "storm", {"topology": "crashy", "batch": str(batch)}
            )
            served[batch] = series["timestamps"]
        yield client, acked, served
    finally:
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)


class TestKillNine:
    def test_acknowledged_writes_survive_sigkill(self, killed_and_restarted):
        _, acked, served = killed_and_restarted
        for batch in acked:
            base = batch * 1000
            assert served[batch] == [base + i for i in range(10)], (
                f"acknowledged batch {batch} lost after kill -9"
            )

    def test_restarted_server_serves_recovered_writes(self, killed_and_restarted):
        client, acked, _ = killed_and_restarted
        assert client.healthz()["recovery"]["replayed_records"] >= 10 * len(acked)
        # the recovered series accepts writes exactly where it left off
        labels = {"topology": "crashy", "batch": str(acked[0])}
        base = acked[0] * 1000
        client.write_metrics("storm", [(base + 10, 0.0)], labels)
        (series,) = client.read_metrics("storm", labels)
        assert series["timestamps"] == [base + i for i in range(11)]


class TestSigterm:
    def test_graceful_exit_checkpoints_and_drains(self, tmp_path):
        data_dir = tmp_path / "data"
        process, port = spawn_serve(data_dir, "--drain-timeout", "10")
        client = CaladriusClient("127.0.0.1", port, retries=0)
        client.wait_ready(timeout=20)
        client.write_metrics("graceful", [(60 * i, float(i)) for i in range(1, 8)])
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            raise AssertionError("SIGTERM did not stop the server in time")
        stderr = process.stderr.read()
        assert process.returncode == 0, stderr
        assert "final checkpoint" in stderr

        # everything was checkpointed: recovery has nothing to replay
        store, _ = open_data_dir(data_dir)
        try:
            report = store.recovery
            assert report.replayed_records == 0
            assert report.torn_records == 0
            assert report.snapshot_samples == 7
            series = store.get("graceful")
            assert list(series.values) == [float(i) for i in range(1, 8)]
        finally:
            store.close()
