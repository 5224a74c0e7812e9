"""The service under test, as one child process.

Composes the production stack from public constructors — a
``DurableMetricsStore`` (``fsync="always"``), a ``TopologyTracker``, a
``CaladriusApp`` with its serving layer's precompute loop running, and an
``AsyncCaladriusServer`` — the way ``caladrius serve --async-api
--fsync always`` does, with one difference: topologies are regenerated
from ``shape:seed:instances`` arguments on every start, because the
tracker is not journalled and a SIGKILL leaves no final checkpoint.

A fresh data directory is preloaded with ``--preload-minutes`` of
simulated history for the ``--preload`` topologies through the batched
durable write path; a recovered one is served as it is.  The process
never exits by itself except when its parent disappears: the load
generator stops it with SIGKILL.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

ANNOUNCE = "ledger service on"


def _exit_with_parent(parent: int) -> None:
    """Leave no orphan behind if the load generator dies uncleanly."""

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(3)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def main(argv: list[str] | None = None) -> int:
    from benchmarks.ledger import inputs
    from repro.api.app import CaladriusApp
    from repro.api.async_server import AsyncCaladriusServer
    from repro.config import load_config
    from repro.durability import DurableMetricsStore
    from repro.heron.tracker import TopologyTracker

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--register", action="append", default=[],
                        metavar="SHAPE:SEED:INSTANCES",
                        help="topology to register without metrics")
    parser.add_argument("--preload", action="append", default=[],
                        metavar="SHAPE:SEED:INSTANCES",
                        help="topology to register with simulated history")
    parser.add_argument("--preload-minutes", type=int, default=0)
    args = parser.parse_args(argv)

    _exit_with_parent(os.getppid())
    store = DurableMetricsStore(args.data_dir, fsync=inputs.FSYNC)
    fresh = store.recovery.last_lsn == 0
    tracker = TopologyTracker()
    for text in args.register:
        deployment = inputs.build_deployment(inputs.TopologySpec.parse(text))
        tracker.register(deployment.topology, deployment.packing)
    for text in args.preload:
        deployment = inputs.build_deployment(inputs.TopologySpec.parse(text))
        tracker.register(deployment.topology, deployment.packing)
        if fresh and args.preload_minutes:
            history = inputs.simulate_history(
                deployment, args.seed, args.preload_minutes
            )
            inputs.ingest_entries(store, history.entries())

    app = CaladriusApp(load_config({}), tracker, store)
    app.serving.start()
    server = AsyncCaladriusServer(app, port=0)
    server.start()
    print(f"{ANNOUNCE} {server.host}:{server.port}", flush=True)
    threading.Event().wait()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
