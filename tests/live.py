"""What no ManualClock can drive: a real ``caladrius serve`` child (for
``kill -9``, ``SIGTERM`` and recovery on boot), and state that a real
process, socket or thread moves."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from pathlib import Path
from typing import TypeVar

from repro.api.client import CaladriusClient

T = TypeVar("T")

SRC = Path(__file__).resolve().parents[1] / "src"
_PORT_LINE = re.compile(r"serving on ([\d.]+):(\d+)")
#: Batches a write storm has acknowledged before the ``kill -9``.
_ACKED_BEFORE_KILL = 25


def spawn_serve(data_dir: Path, *extra: str) -> tuple[subprocess.Popen, int]:
    """``serve --data-dir D --fsync always --port 0 EXTRA``, and the port
    it announced (recovery runs before the announce line).  Its stderr
    stays piped for the caller to read."""
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--data-dir", str(data_dir), "--fsync", "always", "--port", "0",
            *extra,
        ],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    for line in process.stdout:  # one line at a time, until EOF
        match = _PORT_LINE.search(line)
        if match:
            return process, int(match.group(2))
    process.kill()
    raise AssertionError(f"server never announced a port\n{process.stderr.read()}")


def poll_until(
    predicate: Callable[[], T], timeout: float = 30.0, interval: float = 0.01
) -> T:
    """``predicate()``'s first truthy value within ``timeout`` real
    seconds, else its last value."""
    deadline = time.monotonic() + timeout
    while not (value := predicate()) and time.monotonic() < deadline:
        time.sleep(interval)  # another process, socket or thread moves it
    return value


def sigkill_mid_storm(
    process: subprocess.Popen,
    port: int,
    write: Callable[[CaladriusClient, int], object],
) -> list[int]:
    """Write batch 1, 2, ... with ``write(client, batch)`` (truthy when
    fully acknowledged) until 25 are, then ``kill -9`` the server
    mid-flight; the batch ids it acknowledged."""
    client = CaladriusClient("127.0.0.1", port, retries=0)
    acked: list[int] = []
    stop = threading.Event()

    def storm() -> None:
        batch = 0
        while not stop.is_set():
            batch += 1
            try:
                if write(client, batch):
                    acked.append(batch)
            except Exception:  # noqa: BLE001 - the server died mid-request
                return

    writer = threading.Thread(target=storm)
    try:
        client.wait_ready(timeout=20)
        writer.start()
        poll_until(lambda: len(acked) >= _ACKED_BEFORE_KILL, 20)
    finally:
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)
        stop.set()
        if writer.is_alive():
            writer.join(timeout=30)
    assert len(acked) >= _ACKED_BEFORE_KILL, "the storm never got going"
    assert not writer.is_alive()
    return acked
