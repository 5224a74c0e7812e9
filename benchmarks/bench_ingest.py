"""Batched binary ingest: throughput, byte-identity, kill -9 safety.

The batched ingest path exists to amortize the per-request costs of
metrics writes — HTTP round-trip, JSON parse, lock acquisition, WAL
fsync — over many samples.  This benchmark measures that directly
against a durable store with ``fsync="always"`` (the strictest policy,
where the per-write fsync dominates):

* **per-request**: one ``POST /metrics/write`` per sample — the
  pre-batching path, one fsync per sample;
* **batched**: ``POST /metrics/write_batch`` with ``BATCH_FRAMES``
  WAL-framed samples per request — one round-trip, one fsync.

Three gates make this a CI check, not just a report:

1. batched write throughput must be at least ``MIN_SPEEDUP`` times the
   per-request rate;
2. the two paths must leave *byte-identical* durable state — same
   ``store_content_hash``, same per-topology ``data_version``;
3. a ``kill -9`` mid-storm (a real ``serve --fsync always`` subprocess)
   must lose **zero acknowledged frames**.

Machine-readable results land in ``benchmarks/results/ingest.json``.
Run standalone::

    python benchmarks/bench_ingest.py --smoke

or through pytest (``pytest benchmarks/bench_ingest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

#: Batched over per-request write throughput, both over real HTTP into
#: a ``fsync="always"`` durable store.  Measured ~100-400x on the
#: reference host (one fsync amortized over BATCH_FRAMES samples); 10x
#: leaves generous margin for fast-disk CI hosts where fsync is cheap.
MIN_SPEEDUP = 10.0

BATCH_FRAMES = 1000
_PORT_LINE = re.compile(r"caladrius serving on ([\d.]+):(\d+)")


def _boot(data_dir: Path):
    """A served durable app in-process; returns (server, app, store)."""
    from dataclasses import replace

    from repro.api.app import CaladriusApp
    from repro.api.server import CaladriusServer
    from repro.config import load_config
    from repro.durability import DurableMetricsStore
    from repro.heron.tracker import TopologyTracker

    config = load_config({})
    config = replace(config, serving=replace(config.serving, enabled=False))
    store = DurableMetricsStore(data_dir, fsync="always")
    app = CaladriusApp(config, TopologyTracker(), store)
    server = CaladriusServer(app, port=0)
    server.start()
    return server, app, store


def _entries(count: int, offset: int = 0):
    return [
        (
            "arrivals",
            60 * (i + offset + 1),
            float(i),
            {"topology": f"bench-{(i + offset) % 8}", "lane": "ingest"},
        )
        for i in range(count)
    ]


def _per_request_rate(client, samples: int) -> float:
    started = time.perf_counter()
    for name, ts, value, tags in _entries(samples):
        client.write_metrics(name, [(ts, value)], tags)
    return samples / (time.perf_counter() - started)


def _batched_rate(client, samples: int) -> float:
    sent = 0
    started = time.perf_counter()
    offset = 0
    while sent < samples:
        chunk = min(BATCH_FRAMES, samples - sent)
        ack = client.write_batch(_entries(chunk, offset=offset))
        assert ack.acked == chunk, f"batch not fully acked: {ack}"
        sent += chunk
        offset += chunk
    return samples / (time.perf_counter() - started)


def _measure_throughput(work_dir: Path, samples: int) -> dict:
    from repro.api.client import CaladriusClient

    results = {}
    for mode, runner in (
        ("per_request", _per_request_rate),
        ("batched", _batched_rate),
    ):
        data_dir = work_dir / f"throughput-{mode}"
        server, app, store = _boot(data_dir)
        client = CaladriusClient(server.host, server.port, retries=0)
        try:
            rate = runner(client, samples)
            fsyncs = store.wal.fsyncs
        finally:
            client.close()
            server.stop()
            app.shutdown()
            store.close()
        results[mode] = {
            "samples": samples,
            "samples_per_second": round(rate, 1),
            "wal_fsyncs": fsyncs,
        }
    results["speedup"] = round(
        results["batched"]["samples_per_second"]
        / results["per_request"]["samples_per_second"],
        2,
    )
    return results


def _measure_identity(work_dir: Path, samples: int) -> dict:
    """Same sample set via both paths: durable state must be identical."""
    from repro.api.client import CaladriusClient
    from repro.durability import DurableMetricsStore, store_content_hash

    entries = _entries(samples)
    digests = {}
    versions = {}
    for mode in ("per_request", "batched"):
        data_dir = work_dir / f"identity-{mode}"
        server, app, store = _boot(data_dir)
        client = CaladriusClient(server.host, server.port, retries=0)
        try:
            if mode == "batched":
                ack = client.write_batch(entries)
                assert ack.acked == samples
            else:
                for name, ts, value, tags in entries:
                    client.write_metrics(name, [(ts, value)], tags)
        finally:
            client.close()
            server.stop()
            app.shutdown()
            store.close()
        # Reopen cold: identity must hold through recovery, not just
        # in memory.
        with DurableMetricsStore(data_dir) as reopened:
            digests[mode] = store_content_hash(reopened)
            versions[mode] = reopened.data_version()
    return {
        "samples": samples,
        "content_hash_identical": digests["per_request"] == digests["batched"],
        "data_version_identical": versions["per_request"]
        == versions["batched"],
        "content_hash": digests["batched"],
        "data_version": versions["batched"],
    }


def _spawn_server(data_dir: Path) -> tuple[subprocess.Popen, int]:
    repo_src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_src)
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--data-dir", str(data_dir),
            "--fsync", "always",
            "--port", "0",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        match = _PORT_LINE.search(line)
        if match:
            return process, int(match.group(2))
        if process.poll() is not None:
            break
        time.sleep(0.01)
    process.kill()
    raise AssertionError("bench server never announced a port")


def _measure_kill_nine(work_dir: Path, min_batches: int) -> dict:
    """Batched storm, SIGKILL mid-flight, reopen: acked frames survive."""
    from repro.api.client import CaladriusClient
    from repro.durability import open_data_dir

    data_dir = work_dir / "kill-nine"
    process, port = _spawn_server(data_dir)
    acked: list[int] = []
    try:
        client = CaladriusClient("127.0.0.1", port, retries=0)
        client.wait_ready(timeout=20)
        stop = threading.Event()

        def storm():
            batch = 0
            while not stop.is_set():
                batch += 1
                base = batch * 1000
                try:
                    ack = client.write_batch(
                        [
                            ("storm", base + i, float(base + i),
                             {"topology": "crashy", "batch": str(batch)})
                            for i in range(10)
                        ]
                    )
                except Exception:
                    return  # server killed mid-request: the point
                if ack.acked == 10 and not ack.refused:
                    acked.append(batch)

        writer = threading.Thread(target=storm)
        writer.start()
        deadline = time.monotonic() + 30
        while len(acked) < min_batches and time.monotonic() < deadline:
            time.sleep(0.005)
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)
        stop.set()
        writer.join(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)

    lost = []
    store, _ = open_data_dir(data_dir)
    try:
        for batch in acked:
            base = batch * 1000
            try:
                series = store.get(
                    "storm", {"topology": "crashy", "batch": str(batch)}
                )
                present = list(series.timestamps)
            except Exception:
                present = []
            if present != [base + i for i in range(10)]:
                lost.append(batch)
    finally:
        store.close()
    return {
        "acked_batches": len(acked),
        "acked_frames": len(acked) * 10,
        "lost_acked_batches": len(lost),
        "storm_reached_target": len(acked) >= min_batches,
    }


def run_benchmark(smoke: bool = False) -> tuple[list[str], dict]:
    samples = 2_000 if smoke else 10_000
    identity_samples = 500 if smoke else 2_000
    min_batches = 10 if smoke else 25

    work_dir = Path(tempfile.mkdtemp(prefix="bench-ingest-"))
    try:
        throughput = _measure_throughput(work_dir, samples)
        identity = _measure_identity(work_dir, identity_samples)
        kill_nine = _measure_kill_nine(work_dir, min_batches)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {
        "smoke": smoke,
        "batch_frames": BATCH_FRAMES,
        "throughput": throughput,
        "identity": identity,
        "kill_nine": kill_nine,
        "gates": {"min_speedup": MIN_SPEEDUP},
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }
    per = throughput["per_request"]
    bat = throughput["batched"]
    lines = [
        "Batched binary ingest vs per-request writes "
        "(fsync=always, real HTTP)",
        f"per-request: {per['samples_per_second']:,.0f} samples/s "
        f"({per['wal_fsyncs']} fsyncs for {per['samples']} samples)",
        f"batched x{BATCH_FRAMES}: {bat['samples_per_second']:,.0f} "
        f"samples/s ({bat['wal_fsyncs']} fsyncs for {bat['samples']} "
        "samples)",
        f"speedup: {throughput['speedup']:.1f}x (gate >= {MIN_SPEEDUP}x)",
        "durable state identical batched vs per-request: "
        + (
            "yes"
            if identity["content_hash_identical"]
            and identity["data_version_identical"]
            else "NO"
        ),
        f"kill -9: {kill_nine['acked_frames']} acked frames, "
        f"{kill_nine['lost_acked_batches']} lost "
        "(gate: zero acknowledged loss)",
    ]
    return lines, metrics


def check_gates(metrics: dict) -> list[str]:
    problems = []
    speedup = metrics["throughput"]["speedup"]
    if speedup < MIN_SPEEDUP:
        problems.append(
            f"batched speedup {speedup:.1f}x < {MIN_SPEEDUP}x"
        )
    if not metrics["identity"]["content_hash_identical"]:
        problems.append("batched and per-request content hashes differ")
    if not metrics["identity"]["data_version_identical"]:
        problems.append("batched and per-request data versions differ")
    if not metrics["kill_nine"]["storm_reached_target"]:
        problems.append("kill -9 storm never reached its batch target")
    if metrics["kill_nine"]["lost_acked_batches"]:
        problems.append(
            f"{metrics['kill_nine']['lost_acked_batches']} acknowledged "
            "batches lost after kill -9"
        )
    return problems


def _write_results(lines: list[str], metrics: dict) -> None:
    results = Path(__file__).resolve().parent / "results"
    results.mkdir(exist_ok=True)
    (results / "ingest.txt").write_text("\n".join(lines) + "\n")
    (results / "ingest.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    )


def bench_ingest(quick, report):
    lines, metrics = run_benchmark(smoke=quick)
    report("ingest", lines)
    _write_results(lines, metrics)
    assert not check_gates(metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller sample counts (same paths and gates)",
    )
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(repo_root / "src"))

    lines, metrics = run_benchmark(smoke=args.smoke)
    print("\n".join(lines))
    _write_results(lines, metrics)

    problems = check_gates(metrics)
    for problem in problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
