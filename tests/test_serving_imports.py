"""Structure guard: a serving process imports only what it runs.

``caladrius serve`` and the benchmark ledger's child service are started
for real, each in a fresh interpreter that reports its ``sys.modules``.
Neither may load what no service runs — the YAML parser (a config *file*
needs it, the service does not), process pools, the HTTP client, the
scenario matrix, the topology YAML loader — and the child, once ready,
must import nothing more to answer modelling, write and probe requests:
a module first imported on a request path lands in that request's
latency.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from repro.api.client import CaladriusClient
from repro.api.ingest import FRAMES_CONTENT_TYPE, encode_frames
from tests.source_index import ROOT

NOT_SERVED = (
    "yaml",
    "multiprocessing",
    "repro.api.client",
    "repro.workloads.matrix",
    "repro.heron.topology_yaml",
)
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
ANNOUNCE = "ledger service on"
#: The ledger child's ``main`` on a thread; every line on stdin asks for
#: the interpreter's module list, answered as one JSON line on stdout.
CHILD = """
import json, sys, threading
sys.path.insert(0, {root!r})
from benchmarks.ledger._service import main
threading.Thread(target=main, args=({argv!r},), daemon=True).start()
for _ in sys.stdin:
    print(json.dumps(sorted(sys.modules)), flush=True)
"""


def test_caladrius_serve_imports_only_what_it_runs(tmp_path):
    argv = ["serve", "--once", "--port", "0", "--data-dir", str(tmp_path / "d")]
    run = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; from repro.cli import main; "
         f"code = main({argv!r}); "
         "print(json.dumps(sorted(sys.modules))); sys.exit(code)"],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    imported = json.loads(run.stdout.splitlines()[-1])
    assert "repro.durability.store" in imported  # it did serve a data dir
    assert [name for name in NOT_SERVED if name in imported] == []


def test_the_ledger_child_imports_nothing_it_does_not_run(tmp_path):
    argv = ["--data-dir", str(tmp_path / "d"), "--seed", "7",
            "--preload", "deep_chain:7:40", "--preload-minutes", "6"]
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD.format(root=str(ROOT), argv=argv)],
        env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )

    def modules() -> list[str]:
        child.stdin.write("?\n")
        child.stdin.flush()
        return json.loads(child.stdout.readline())

    try:
        line = child.stdout.readline()
        assert line.startswith(ANNOUNCE), line
        ready = modules()
        client = CaladriusClient("127.0.0.1", int(line.rsplit(":", 1)[1]))
        (name,) = client.exchange("GET", "/topologies")[1]["topologies"]
        for rate in (1e5, 2e5, 1e5):
            status, _, _ = client.exchange(
                "POST", f"/model/topology/heron/{name}",
                json.dumps({"source_rate": rate}).encode(),
            )
            assert status == 200
        assert client.exchange("GET", f"/model/traffic/heron/{name}")[0] == 200
        frames = encode_frames([("probe", 10**6, 1.0, {"topology": name})])
        status, ack, _ = client.exchange(
            "POST", "/metrics/write_batch", frames,
            content_type=FRAMES_CONTENT_TYPE,
        )
        assert (status, ack["acked"]) == (200, 1)
        assert client.exchange("GET", "/healthz")[0] == 200
        client.close()
        time.sleep(0.2)  # a real subprocess: let the write's re-warm run
        served = modules()
    finally:
        child.kill()
        child.wait()
        child.stdin.close()
        child.stdout.close()
    assert "repro.durability.store" in ready  # it did open a data dir
    assert [name for name in NOT_SERVED if name in served] == []
    assert [name for name in served if name not in ready] == []
