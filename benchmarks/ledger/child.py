"""Supervision of the child service process.

One :class:`Service` owns one data directory and at most one live child.
However a run ends — success, failed check, exception, Ctrl-C — ``close``
SIGKILLs the child, waits for it and removes the directory, so the ledger
leaves neither processes nor files behind.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.ledger._service import ANNOUNCE
from benchmarks.ledger.inputs import TopologySpec
from repro.api.client import CaladriusClient

ROOT = Path(__file__).resolve().parents[2]
#: Scratch space inside the checkout (the benchmark may write nowhere else).
TMP_ROOT = ROOT / ".ledger_tmp"
_SERVICE = Path(__file__).resolve().parent / "_service.py"
_START_TIMEOUT = 120.0


class ServiceError(RuntimeError):
    """The child died or never became ready."""


class Service:
    """The service under test: start, SIGKILL, restart, measure, reap."""

    def __init__(
        self,
        seed: int,
        register: tuple[TopologySpec, ...] = (),
        preload: tuple[TopologySpec, ...] = (),
        preload_minutes: int = 0,
    ) -> None:
        TMP_ROOT.mkdir(exist_ok=True)
        self.work_dir = Path(tempfile.mkdtemp(prefix="svc-", dir=TMP_ROOT))
        self.data_dir = self.work_dir / "data"
        self._argv = [
            sys.executable, str(_SERVICE),
            "--data-dir", str(self.data_dir),
            "--seed", str(seed),
            "--preload-minutes", str(preload_minutes),
        ]
        for spec in register:
            self._argv += ["--register", spec.arg()]
        for spec in preload:
            self._argv += ["--preload", spec.arg()]
        self._process: subprocess.Popen | None = None
        self._stderr = None
        self.client: CaladriusClient | None = None
        self.starts = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Exec the child and wait until ``/readyz`` answers 200."""
        if self._process is not None:
            raise ServiceError("service already running")
        began = time.perf_counter()
        self.starts += 1
        self._stderr = open(self.work_dir / f"stderr-{self.starts}.log", "wb")
        self._process = subprocess.Popen(
            self._argv, stdout=subprocess.PIPE, stderr=self._stderr,
            bufsize=0, cwd=ROOT,
        )
        port = self._read_port(began + _START_TIMEOUT)
        self.client = CaladriusClient("127.0.0.1", port, retries=0)
        self.client.wait_ready(
            timeout=max(1.0, began + _START_TIMEOUT - time.perf_counter()),
            poll_seconds=0.002,
        )

    def _read_port(self, deadline: float) -> int:
        assert self._process is not None and self._process.stdout is not None
        fd = self._process.stdout.fileno()
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            ready = remaining > 0 and select.select([fd], [], [], remaining)[0]
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                detail = self._stderr_tail()
                self.kill()
                raise ServiceError(
                    f"child service never announced a port: {detail}"
                )
            line += chunk
        text = line.decode("utf8", "replace").strip()
        if not text.startswith(ANNOUNCE):
            self.kill()
            raise ServiceError(f"unexpected announce line {text!r}")
        return int(text.rsplit(":", 1)[1])

    def _stderr_tail(self) -> str:
        path = self.work_dir / f"stderr-{self.starts}.log"
        try:
            return path.read_text("utf8", "replace")[-2000:]
        except OSError:
            return ""

    def kill(self) -> None:
        """SIGKILL the child and wait for it (idempotent)."""
        process, self._process = self._process, None
        if self.client is not None:
            self.client.close()
            self.client = None
        if process is not None:
            if process.poll() is None:
                process.send_signal(signal.SIGKILL)
            process.wait()
            if process.stdout is not None:
                process.stdout.close()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None

    def restart(self) -> None:
        """SIGKILL, then start (and so recover) on the same data dir."""
        self.kill()
        self.start()

    def close(self) -> None:
        self.kill()
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    @property
    def pid(self) -> int:
        if self._process is None:
            raise ServiceError("service is not running")
        return self._process.pid

    def peak_rss_mb(self) -> float:
        """The child's high-water resident set (``VmHWM``), in MiB."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServiceError("VmHWM missing from /proc status")
