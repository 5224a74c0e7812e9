"""Command-line interface for the Caladrius reproduction.

Ten subcommands cover the operational surface:

``serve``
    Stand up the web service over a demo cluster (or an empty tracker)
    from a YAML config — the paper's deployment mode.  With
    ``--shards N`` it becomes the cluster front door: a router process
    supervising N shard workers (and, with ``--replicate``, one
    WAL-shipping follower per shard).
``follow``
    Run a follower replica: receives shipped WAL segments from a shard
    and serves read-only modelling queries over the replayed state.
``cluster-stats``
    Query a running cluster router for ring layout, per-shard state and
    proxy counters.
``recover``
    Replay a data directory offline, report what recovery read, and
    compact the WAL into a checkpoint (``--no-checkpoint`` only reports).
``simulate``
    Run the Word Count topology at a source rate and print its
    per-minute metrics, useful for exploring the simulator.
``predict``
    One-shot performance prediction: simulate, calibrate and report the
    dry-run verdict for a traffic level and proposed parallelisms.
``sweep``
    Rank candidate parallelism plans for Word Count from one
    calibration, optionally validating the best by simulation.
``serving-stats``
    Query a running service's serving-layer counters (the table of
    answers and its pending entries, scheduler, precompute, breaker).
``forecast``
    Fit the traffic models on a simulated seasonal history and print
    the forecast summary.
``matrix``
    Run the workload-diversity scenario matrix: generated topologies
    (diamond, fan-in, deep chain, multi-spout) × fault kinds × traffic
    patterns, each cell scored as calibration MAPE against a fresh
    validation run, with a machine-readable ``matrix_report.json``.

Every subcommand is pure stdlib + this package; run as
``python -m repro.cli <subcommand>`` or through the ``caladrius``
console script.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections.abc import Sequence
from functools import partial
from pathlib import Path

import numpy as np

from repro.api.app import CaladriusApp
from repro.api.server import CaladriusServer
from repro.clock import SYSTEM_CLOCK
from repro.config.loader import CaladriusConfig, ClusterConfig, process_config
from repro.core.performance_models import ThroughputPredictionModel
from repro.core.traffic_models import (
    ProphetTrafficModel,
    StatsSummaryTrafficModel,
)
from repro.errors import ConfigError, ReproError
from repro.heron.metrics import MetricNames
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.tracker import TopologyTracker
from repro.heron.wordcount import (
    WordCountParams,
    build_word_count,
    demo_word_count,
)
from repro.telemetry import Telemetry
from repro.timeseries.store import MetricsStore

__all__ = ["main", "build_parser"]

M = 1e6


#: The ``serve``/``follow`` flags that set a configuration key:
#: flag → (dotted key, the value a switch sets or ``None`` for a flag
#: that takes one, help).  The flags given are laid over ``--config``
#: before the one validation (:func:`_resolve`), and a cluster child is
#: handed the same flags (:func:`_inherited`).
SETTING_FLAGS: dict[str, tuple[str, object, str]] = {
    "--host": ("api.host", None, "listen address (default 127.0.0.1)"),
    "--port": ("api.port", None, "listen port (0 = any free port)"),
    "--shards": (
        "cluster.shards", None,
        "run the cluster tier: a router on --port plus N worker processes, "
        "topologies consistent-hash-routed across them",
    ),
    "--replicate": (
        "cluster.replicate", True,
        "pair every shard with a follower replica fed by WAL-segment "
        "shipping (requires --data-dir)",
    ),
    "--sync-ship": (
        "cluster.sync_ship", True,
        "ship WAL segments to the follower before acknowledging writes "
        "(stronger durability, higher write latency)",
    ),
    "--cache-mb": ("serving.cache_mb", None, "result cache budget in MB"),
    "--max-queue": ("serving.max_queue", None, "admission-control queue bound"),
    "--no-serving": (
        "serving.enabled", False,
        "disable the serving layer (recompute every request)",
    ),
    "--data-dir": (
        "durability.data_dir", None,
        "durable state directory (WAL + checkpoints); metrics and packing "
        "plans survive crashes and restarts",
    ),
    "--fsync": (
        "durability.fsync", None,
        "WAL fsync policy: always, interval (default) or never",
    ),
    "--drain-timeout": (
        "durability.drain_timeout_seconds", None,
        "graceful-shutdown bound on waiting for in-flight requests",
    ),
}


def _add_setting_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML config file")
    for flag, (key, switch, text) in SETTING_FLAGS.items():
        if switch is None:
            parser.add_argument(flag, dest=key, help=text)
        else:
            parser.add_argument(
                flag, dest=key, action="store_const", const=switch, help=text
            )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="caladrius",
        description="Caladrius performance-modelling service (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the web service")
    _add_setting_flags(serve)
    serve.add_argument(
        "--demo",
        action="store_true",
        help="register a simulated Word Count deployment with metrics",
    )
    serve.add_argument(
        "--demo-count", type=int, default=1, metavar="K",
        help="with --demo: register K demo topologies "
             "(word-count, word-count-2, ...) sharing the same metrics shape",
    )
    serve.add_argument(
        "--shard-id", type=int, default=None,
        help=argparse.SUPPRESS,  # internal: this process is one shard
    )
    serve.add_argument(
        "--ship-to", default=None, metavar="HOST:PORT",
        help=argparse.SUPPRESS,  # internal: ship WAL segments here
    )
    serve.add_argument(
        "--epoch", type=int, default=None,
        help=argparse.SUPPRESS,  # internal: writer-generation epoch
    )
    serve.add_argument(
        "--once",
        action="store_true",
        help=argparse.SUPPRESS,  # start and stop immediately (tests)
    )

    follow = sub.add_parser(
        "follow",
        help="run a follower replica fed by WAL-segment shipping",
    )
    follow.add_argument("--replica-dir", required=True, metavar="DIR")
    _add_setting_flags(follow)
    follow.add_argument(
        "--once", action="store_true", help=argparse.SUPPRESS
    )

    cluster_stats = sub.add_parser(
        "cluster-stats",
        help="query a running cluster router's fleet-wide stats",
    )
    cluster_stats.add_argument("--host", default="127.0.0.1")
    cluster_stats.add_argument("--port", type=int, default=8080)
    cluster_stats.add_argument(
        "--json", action="store_true", dest="as_json"
    )

    recover = sub.add_parser(
        "recover",
        help="replay a data directory offline and compact its WAL",
    )
    recover.add_argument("--data-dir", required=True, metavar="DIR")
    recover.add_argument(
        "--no-checkpoint", action="store_true",
        help="report only; skip the compacting checkpoint",
    )
    recover.add_argument("--json", action="store_true", dest="as_json")

    simulate = sub.add_parser("simulate", help="run a simulated topology")
    simulate.add_argument("--rate", type=float, required=True,
                          help="source rate, tuples/minute")
    simulate.add_argument("--minutes", type=int, default=5)
    simulate.add_argument("--splitter", type=int, default=3)
    simulate.add_argument("--counter", type=int, default=3)
    simulate.add_argument("--topology", default=None,
                          help="YAML topology file (instead of Word Count)")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--faults", default=None, metavar="PATH",
                          help="YAML fault plan injected during the run")
    simulate.add_argument("--json", action="store_true", dest="as_json")

    predict = sub.add_parser("predict", help="dry-run performance prediction")
    predict.add_argument("--rate", type=float, required=True,
                         help="traffic to evaluate, tuples/minute")
    predict.add_argument("--splitter", type=int, default=2,
                         help="deployed splitter parallelism")
    predict.add_argument("--counter", type=int, default=4,
                         help="deployed counter parallelism")
    predict.add_argument("--propose", default=None,
                         help='proposed parallelisms, e.g. "splitter=4,counter=6"')
    predict.add_argument("--seed", type=int, default=0)
    predict.add_argument("--json", action="store_true", dest="as_json")

    sweep = sub.add_parser(
        "sweep", help="rank candidate parallelism plans in one calibration"
    )
    sweep.add_argument("--rate", type=float, required=True,
                       help="traffic to evaluate, tuples/minute")
    sweep.add_argument("--splitter", type=int, default=3,
                       help="deployed splitter parallelism")
    sweep.add_argument("--counter", type=int, default=3,
                       help="deployed counter parallelism")
    sweep.add_argument("--splitters", default="1-8",
                       help='candidate splitter range, e.g. "2-6" or "4"')
    sweep.add_argument("--counters", default="1-8",
                       help='candidate counter range, e.g. "3-8" or "5"')
    sweep.add_argument("--plans", default=None, metavar="JSON",
                       help="explicit JSON list of plans (overrides ranges)")
    sweep.add_argument("--top-k", type=int, default=10, dest="top_k")
    sweep.add_argument("--validate-top", type=int, default=0,
                       help="simulate the N best plans for validation")
    sweep.add_argument("--workers", type=int, default=0,
                       help="process-pool size for validation (0 = inline)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--json", action="store_true", dest="as_json")

    stats = sub.add_parser(
        "serving-stats", help="query a running service's serving stats"
    )
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, default=8080)
    stats.add_argument("--json", action="store_true", dest="as_json")

    matrix = sub.add_parser(
        "matrix",
        help="run the workload-diversity scenario matrix "
             "(shape x fault x traffic differential tests)",
    )
    matrix.add_argument("--seed", type=int, default=7,
                        help="matrix seed; workloads, faults and traffic "
                             "all derive from it deterministically")
    matrix.add_argument("--cells", type=int, default=None, metavar="N",
                        help="run only the first N grid cells "
                             "(default: the full grid)")
    matrix.add_argument("--shapes", default=None, metavar="CSV",
                        help="comma-separated shape subset "
                             "(diamond,fanin,deep_chain,multi_spout)")
    matrix.add_argument("--minutes", type=int, default=9,
                        help="calibration-run length per cell")
    matrix.add_argument("--report", default=None, metavar="PATH",
                        help="write matrix_report.json here")
    matrix.add_argument("--json", action="store_true", dest="as_json",
                        help="print the full report instead of the table")

    forecast = sub.add_parser("forecast", help="traffic forecasting demo")
    forecast.add_argument("--history-minutes", type=int, default=360)
    forecast.add_argument("--horizon-minutes", type=int, default=60)
    forecast.add_argument("--model", choices=("prophet", "stats-summary"),
                          default="prophet")
    forecast.add_argument("--seed", type=int, default=0)
    forecast.add_argument("--json", action="store_true", dest="as_json")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "serve": _cmd_serve,
        "follow": _cmd_follow,
        "cluster-stats": _cmd_cluster_stats,
        "recover": _cmd_recover,
        "simulate": _cmd_simulate,
        "predict": _cmd_predict,
        "sweep": _cmd_sweep,
        "matrix": _cmd_matrix,
        "forecast": _cmd_forecast,
        "serving-stats": _cmd_serving_stats,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _demo_names(count: int) -> list[str]:
    """The demo topology names for ``--demo --demo-count K``."""
    return ["word-count"] + [f"word-count-{i}" for i in range(2, count + 1)]


def _setup_demo(
    tracker: TopologyTracker,
    store: MetricsStore,
    count: int,
    shard_id: int | None,
    cluster: ClusterConfig,
) -> list[str]:
    """Register the demo topologies this process owns, with metrics.

    Word Count is simulated once into a scratch store, then cloned under
    each demo name (topology, packing plan and metric series with the
    ``topology`` tag rewritten) that ``tracker`` does not hold yet — a
    recovered data directory keeps its own.  In cluster mode only the
    names the consistent-hash ring assigns to ``shard_id`` are
    materialised, so every shard owns a disjoint slice of the demo
    fleet — the same placement the router computes.  With a durable
    store the cloned series are journalled like any other write.
    """
    from repro.durability.codec import (
        _decode_packing,
        _decode_topology,
        _encode_packing,
        _encode_topology,
    )

    names = _demo_names(count)
    if shard_id is not None and cluster.shards > 1:
        from repro.cluster.ring import HashRing

        ring = HashRing(list(range(cluster.shards)), cluster.virtual_nodes)
        names = [n for n in names if ring.shard_for(n) == shard_id]
    missing = [n for n in names if n not in tracker.names()]
    if not missing:
        return names
    scratch_tracker, scratch_store, _ = demo_word_count(2, 4, seed=0)
    base = scratch_tracker.get("word-count")
    series = [
        (key, scratch_store.get(key.name, key.tag_dict()))
        for key in scratch_store.keys()
    ]
    for name in missing:
        logical = _encode_topology(base.topology)
        logical["name"] = name
        packing = _encode_packing(base.packing)
        packing["topology"] = name
        tracker.register(_decode_topology(logical), _decode_packing(packing))
        for key, full in series:
            tags = key.tag_dict()
            if tags.get("topology") != "word-count":
                continue
            tags["topology"] = name
            store.write_many(
                key.name,
                zip(
                    (int(t) for t in full.timestamps),
                    (float(v) for v in full.values),
                ),
                tags,
            )
    return names


def _parse_proposal(text: str | None) -> dict[str, int] | None:
    if not text:
        return None
    proposal: dict[str, int] = {}
    for item in text.split(","):
        name, _, value = item.partition("=")
        if not name or not value:
            raise SystemExit(
                f'cannot parse proposal item {item!r}; use "component=N"'
            )
        proposal[name.strip()] = int(value)
    return proposal


def _start_wal_watchdog(store, poll_seconds: float = 0.2) -> None:
    """Exit the worker hard (code 70) once its WAL has failed.

    A shard whose WAL hit a disk fault (a failed write or fsync) can
    still answer reads, but every write will fail forever; dying loudly hands
    the decision to the shard manager, which validates the data dir and
    promotes the follower when the replica holds more than the disk.
    """
    import os
    import threading

    def _watch() -> None:
        while not store.wal.failed:
            SYSTEM_CLOCK.sleep(poll_seconds)
        print(
            f"wal failed ({store.wal.failed}); exiting for the supervisor",
            file=sys.stderr,
            flush=True,
        )
        os._exit(70)

    threading.Thread(
        target=_watch, name="wal-watchdog", daemon=True
    ).start()


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _resolve(args) -> CaladriusConfig:
    """The configuration this ``serve``/``follow`` process runs: its
    ``--config`` with the setting flags it was given laid over it.  A
    follower serves its replica directory, on any free port unless
    ``--port`` says otherwise (the file's port is its router's), with
    the serving layer off: it only answers reads over replicated state,
    so the layer's precompute loop would be wasted work."""
    overlay = {
        key: getattr(args, key)
        for key, _, _ in SETTING_FLAGS.values()
        if getattr(args, key) is not None
    }
    if args.command == "follow":
        if "durability.data_dir" in overlay:
            raise ConfigError(
                "follow takes no --data-dir: it serves the replica "
                "directory --replica-dir names"
            )
        overlay.setdefault("api.port", 0)
        overlay.update(
            {"serving.enabled": False, "durability.data_dir": args.replica_dir}
        )
    return process_config(args.config, overlay)


def _cmd_serve(args) -> int:
    config = _resolve(args)
    logging.basicConfig(level=config.log_level, stream=sys.stderr)
    if args.shard_id is None and config.cluster.shards > 1:
        return _serve_cluster(args, config)

    checkpointer = None
    durable_store = None
    # One registry for the app and the store and shipper built for it.
    telemetry = Telemetry()
    if config.durability.data_dir:
        from repro.durability import CheckpointManager, open_data_dir

        store, tracker = open_data_dir(
            config.durability.data_dir,
            fsync=config.durability.fsync,
            fsync_interval_seconds=config.durability.fsync_interval_seconds,
            segment_max_bytes=config.durability.segment_max_bytes,
            telemetry=telemetry,
        )
        durable_store = store
        checkpointer = CheckpointManager(store, tracker)
        print(
            f"recovered {config.durability.data_dir}: "
            f"{json.dumps(store.recovery.as_dict())}",
            file=sys.stderr,
        )
        if args.shard_id is not None:
            _start_wal_watchdog(durable_store)
    else:
        tracker, store = TopologyTracker(), MetricsStore(telemetry=telemetry)
    if args.demo:
        _setup_demo(
            tracker, store, args.demo_count, args.shard_id, config.cluster
        )
        if args.shard_id is not None and checkpointer is not None:
            # Checkpoint the demo registration immediately: a shard the
            # supervisor respawns after kill -9 must recover its tracker
            # (topologies live only in checkpoints) or the demo guard
            # would re-simulate into the recovered store and crash-loop
            # on duplicate timestamps.
            summary = checkpointer.checkpoint()
            print(
                f"initial checkpoint: {json.dumps(summary)}",
                file=sys.stderr,
            )

    app = CaladriusApp(
        config, tracker, store, shard_id=args.shard_id, epoch=args.epoch,
        telemetry=telemetry,
    )
    shipper = None
    if args.ship_to:
        if durable_store is None:
            print(
                "error: --ship-to requires --data-dir (there is no WAL "
                "to ship without durability)",
                file=sys.stderr,
            )
            return 2
        from repro.cluster.shipping import SegmentShipper

        shipper = SegmentShipper(
            durable_store,
            args.ship_to,
            interval_seconds=config.cluster.ship_interval_seconds,
            epoch=args.epoch,
        )
        app.shipper = shipper
        app.sync_ship = config.cluster.sync_ship
        shipper.start()
    if app.serving is not None:
        app.serving.start()  # warm-cache precompute loop
    server = CaladriusServer(app, host=config.api_host, port=config.api_port)
    server.start()

    def _final_checkpoint() -> None:
        if durable_store is None:
            return
        durable_store.flush()
        summary = checkpointer.checkpoint()
        if shipper is not None:
            # Stop ships once more after the checkpoint, so the follower
            # holds the final checkpoint and every surviving segment.
            shipper.stop()
        durable_store.close()
        print(f"final checkpoint: {json.dumps(summary)}", file=sys.stderr)

    if args.once:
        print(
            f"caladrius serving on {server.host}:{server.port}", flush=True
        )
        server.stop()
        _final_checkpoint()
        app.shutdown()
        return 0
    # Handlers go in BEFORE the announce line: supervisors (and the
    # cluster's ShardManager) may SIGTERM the instant they parse the
    # port, and an unhandled SIGTERM there would skip the drain and the
    # final checkpoint.
    done = server.install_signal_handlers(
        drain_timeout=config.durability.drain_timeout_seconds,
        on_drained=_final_checkpoint,
    )
    # flush=True: the crash harness parses this line through a pipe.
    print(f"caladrius serving on {server.host}:{server.port}", flush=True)
    done.wait()  # pragma: no cover - exercised via subprocess tests
    app.shutdown()
    return 0


def _inherited(args, *omitted: str) -> list[str]:
    """The command line a cluster child inherits: ``--config`` and every
    setting flag given, as given, but the ``omitted`` ones."""
    argv = ["--config", args.config] if args.config else []
    for flag, (key, switch, _) in SETTING_FLAGS.items():
        value = getattr(args, key)
        if value is not None and flag not in omitted:
            argv += [flag] if switch is not None else [flag, value]
    return argv


def _worker_argv(
    args, config: CaladriusConfig, shard_id: int, ship_to: str | None,
    epoch: int,
) -> list[str]:
    """Shard ``shard_id``'s worker command line.  Its identity flags come
    last, so they replace the inherited ``--port`` and ``--data-dir``."""
    argv = [
        sys.executable, "-m", "repro.cli", "serve", *_inherited(args),
        "--shard-id", str(shard_id), "--epoch", str(epoch), "--port", "0",
    ]
    if args.demo:
        argv += ["--demo", "--demo-count", str(args.demo_count)]
    if config.durability.data_dir:
        argv += ["--data-dir", str(_shard_dirs(config, shard_id)[0])]
    if ship_to:
        argv += ["--ship-to", ship_to]
    return argv


def _follower_argv(args, config: CaladriusConfig, shard_id: int) -> list[str]:
    """Shard ``shard_id``'s follower command line: its directory is its
    ``--replica-dir``, and ``follow`` refuses a ``--data-dir``."""
    return [
        sys.executable, "-m", "repro.cli", "follow",
        *_inherited(args, "--data-dir"),
        "--replica-dir", str(_shard_dirs(config, shard_id)[1]), "--port", "0",
    ]


def _shard_dirs(config: CaladriusConfig, shard_id: int) -> tuple[Path, Path]:
    """Shard ``shard_id``'s worker and replica directories."""
    root = Path(config.durability.data_dir)
    return root / f"shard-{shard_id}", root / f"replica-{shard_id}"


def _serve_cluster(args, config: CaladriusConfig) -> int:
    """``serve --shards N``: router front door over N worker processes."""
    from repro.cluster.router import RouterApp
    from repro.cluster.shard import ShardManager, Subprocesses

    shards = config.cluster.shards
    replicate = config.cluster.replicate
    follower_argv = shard_dirs = None
    if replicate:
        follower_argv = partial(_follower_argv, args, config)
        shard_dirs = partial(_shard_dirs, config)
    manager = ShardManager(
        Subprocesses(partial(_worker_argv, args, config), follower_argv),
        host=config.api_host,
        restart_backoff_seconds=config.cluster.restart_backoff_seconds,
        shard_dirs=shard_dirs,
        epoch_path=(
            Path(config.durability.data_dir, "epochs.json")
            if config.durability.data_dir
            else None
        ),
        unresponsive_timeout_seconds=(
            config.cluster.unresponsive_timeout_seconds
        ),
    )
    try:
        manager.start(shards)
    except ReproError:
        manager.stop_all()
        raise
    router = RouterApp(
        config,
        manager,
        virtual_nodes=config.cluster.virtual_nodes,
        proxy_timeout=config.cluster.proxy_timeout_seconds,
    )
    server = CaladriusServer(router, host=config.api_host, port=config.api_port)
    server.start()

    def _stop_fleet() -> None:
        router.shutdown()

    def _announce() -> None:
        # Same announce shape as single-process serve: harnesses parse
        # the "serving on host:port" suffix through a pipe.
        print(
            f"caladrius cluster ({shards} shard(s)"
            + (", replicated" if replicate else "")
            + f") serving on {server.host}:{server.port}",
            flush=True,
        )

    if args.once:
        _announce()
        server.stop()
        _stop_fleet()
        return 0
    done = server.install_signal_handlers(
        drain_timeout=config.durability.drain_timeout_seconds,
        on_drained=_stop_fleet,
    )
    _announce()
    done.wait()  # pragma: no cover - exercised via subprocess tests
    return 0


def _cmd_follow(args) -> int:
    from repro.cluster.follower import FollowerApp, FollowerReplica

    config = _resolve(args)
    logging.basicConfig(level=config.log_level, stream=sys.stderr)
    replica = FollowerReplica(args.replica_dir)
    inner = CaladriusApp(
        config, replica.tracker, replica.store, read_only=True
    )
    app = FollowerApp(replica, inner)
    server = CaladriusServer(app, host=config.api_host, port=config.api_port)
    server.start()

    def _announce() -> None:
        print(
            f"caladrius follower serving on {server.host}:{server.port}",
            flush=True,
        )

    if args.once:
        _announce()
        server.stop()
        app.close()
        return 0
    done = server.install_signal_handlers()
    _announce()
    done.wait()  # pragma: no cover - exercised via subprocess tests
    app.close()
    return 0


def _cmd_cluster_stats(args) -> int:
    from repro.api.client import CaladriusClient

    client = CaladriusClient(args.host, args.port, retries=1)
    stats = client._request("GET", "/cluster/stats")
    if args.as_json:
        print(json.dumps(stats, indent=2))
        return 0
    ring = stats["ring"]
    print(
        f"ring     : {len(ring['shards'])} shard(s), "
        f"{ring['virtual_nodes']} virtual nodes, "
        f"version {ring['version']}"
    )
    for shard in stats["shards"]:
        address = ring["addresses"].get(str(shard["shard_id"]))
        line = (
            f"  shard {shard['shard_id']}: {shard['state']:<10} "
            f"{address or '-':<21} restarts={shard['restarts']}"
            f" epoch={shard.get('epoch', 0)}"
        )
        if shard.get("promotions"):
            line += f" promotions={shard['promotions']}"
        if "follower_port" in shard:
            line += f" follower=:{shard['follower_port']}"
        print(line)
    router = stats["router"]
    print(
        f"router   : {router['proxied']} proxied, "
        f"{router['unavailable']} unavailable, "
        f"up {router['uptime_seconds']:.0f}s"
    )
    return 0


def _cmd_recover(args) -> int:
    from repro.durability import CheckpointManager, open_data_dir

    store, tracker = open_data_dir(args.data_dir)
    report: dict[str, object] = {
        "data_dir": args.data_dir,
        "recovery": store.recovery.as_dict(),
        "topologies": tracker.names(),
    }
    if not args.no_checkpoint:
        report["checkpoint"] = CheckpointManager(store, tracker).checkpoint()
    store.close()
    if args.as_json:
        print(json.dumps(report, indent=2))
        return 0
    recovery = report["recovery"]
    print(f"data dir     : {args.data_dir}")
    print(f"checkpoint   : lsn {recovery['checkpoint_lsn']}, "
          f"{recovery['snapshot_samples']} snapshot samples")
    print(f"wal replay   : {recovery['replayed_records']} records "
          f"({recovery['skipped_records']} skipped, "
          f"{recovery['torn_records']} torn)")
    print(f"wal decoded  : {recovery['decoded_records']} records "
          "(every other one resolved by its head)")
    print(f"wal scanned  : {recovery['segments']} segments, "
          f"{recovery['bytes']} bytes, opened in "
          f"{recovery['seconds']:.3f} s")
    print(f"last lsn     : {recovery['last_lsn']}")
    print(f"topologies   : {', '.join(report['topologies']) or '(none)'}")
    if "checkpoint" in report:
        print(f"compacted    : {json.dumps(report['checkpoint'])}")
    return 0


def _cmd_simulate(args) -> int:
    if args.topology:
        from repro.heron.topology_yaml import load_topology_yaml

        topology, packing, logic = load_topology_yaml(args.topology)
    else:
        params = WordCountParams(
            splitter_parallelism=args.splitter,
            counter_parallelism=args.counter,
        )
        topology, packing, logic = build_word_count(params)
    store = MetricsStore()
    plan = None
    if args.faults:
        from repro.faults import load_fault_plan

        plan = load_fault_plan(args.faults, topology, packing, args.minutes)
    sim = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=args.seed),
        faults=plan,
    )
    for spout in topology.spouts():
        sim.set_source_rate(spout.name, args.rate / len(topology.spouts()))
    sim.run(args.minutes)
    first_bolt = topology.bolts()[0].name
    sinks = [c.name for c in topology.sinks()]
    rows = []
    bolt_in = store.aggregate(
        MetricNames.EXECUTE_COUNT, {"component": first_bolt}
    )
    outputs = [
        store.aggregate(MetricNames.EXECUTE_COUNT, {"component": sink})
        for sink in sinks
    ]
    bp = store.get(
        MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS,
        {"topology": topology.name},
    )
    # Fault blackouts leave different series missing different minutes,
    # so rows are joined on timestamps rather than positions.
    out_maps = [
        dict(zip(o.timestamps.tolist(), o.values.tolist())) for o in outputs
    ]
    bp_map = dict(zip(bp.timestamps.tolist(), bp.values.tolist()))
    for ts, value in bolt_in:
        minute = int(ts) // 60
        rows.append(
            {
                "minute": minute,
                f"{first_bolt}_in_tpm": value,
                "output_tpm": float(
                    sum(m.get(int(ts), 0.0) for m in out_maps)
                ),
                "backpressure_ms": float(bp_map.get(int(ts), 0.0)),
            }
        )
    if plan is not None:
        for seconds, action, event in sim.fault_log:
            target = event.component or (
                f"container-{event.container}"
                if event.container is not None
                else "topology"
            )
            if event.index is not None:
                target += f"[{event.index}]"
            print(
                f"[fault] t={seconds:>5.0f}s {action:<8} "
                f"{event.kind:<15} {target}",
                file=sys.stderr,
            )
    if args.as_json:
        print(json.dumps(rows, indent=2))
    else:
        print(f"{'minute':>7} {first_bolt + ' in':>14} {'output':>14} "
              f"{'bp ms':>8}")
        for row in rows:
            print(
                f"{row['minute']:>7} {row[f'{first_bolt}_in_tpm'] / M:>13.2f}M "
                f"{row['output_tpm'] / M:>13.2f}M {row['backpressure_ms']:>8.0f}"
            )
    return 0


def _cmd_predict(args) -> int:
    tracker, store, _ = demo_word_count(
        args.splitter, args.counter, args.seed
    )
    model = ThroughputPredictionModel(tracker, store)
    prediction = model.predict(
        "word-count",
        source_rate=args.rate,
        parallelisms=_parse_proposal(args.propose),
    )
    if args.as_json:
        print(json.dumps(prediction.as_dict(), indent=2))
    else:
        print(f"topology     : {prediction.topology}")
        print(f"traffic      : {prediction.source_rate / M:.1f}M tuples/min")
        print(f"parallelisms : {prediction.parallelisms}")
        print(f"output       : {prediction.output_rate / M:.1f}M tuples/min")
        print(f"saturation   : "
              f"{prediction.saturation_source_rate / M:.1f}M tuples/min")
        print(f"risk         : {prediction.backpressure_risk}"
              + (f" (bottleneck: {prediction.bottleneck})"
                 if prediction.bottleneck else ""))
    return 0


def _parse_range(text: str, flag: str) -> list[int]:
    """Parse ``"2-6"`` or ``"4"`` into a list of parallelisms."""
    lo, sep, hi = text.partition("-")
    try:
        if sep:
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(lo)]
    except ValueError:
        raise SystemExit(f'cannot parse {flag} {text!r}; use "N" or "LO-HI"')
    if not values or min(values) < 1:
        raise SystemExit(f"{flag} must cover parallelisms >= 1")
    return values


def _cmd_sweep(args) -> int:
    from repro.sweep import PlanSweepEngine, ValidationSpec, validate_plans

    tracker, store, logic = demo_word_count(
        args.splitter, args.counter, args.seed
    )
    if args.plans:
        try:
            plans = json.loads(args.plans)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"--plans is not valid JSON: {exc}")
        if not isinstance(plans, list):
            raise SystemExit("--plans must be a JSON list of objects")
    else:
        plans = [
            {"splitter": s, "counter": c}
            for s in _parse_range(args.splitters, "--splitters")
            for c in _parse_range(args.counters, "--counters")
        ]
    engine = PlanSweepEngine(tracker, store)
    started = SYSTEM_CLOCK.monotonic()
    payload = engine.sweep(
        "word-count", args.rate, plans, top_k=args.top_k
    )
    elapsed = SYSTEM_CLOCK.monotonic() - started
    if args.validate_top > 0:
        spec = ValidationSpec(
            topology=tracker.get("word-count").topology,
            logic=logic,
            source_rates_tpm={"sentence-spout": float(args.rate)},
            minutes=3,
            base_seed=args.seed,
        )
        top_plans = [e["plan"] for e in payload["ranked"][: args.validate_top]]
        validated = validate_plans(spec, top_plans, workers=args.workers)
        by_plan = {
            json.dumps(v["plan"], sort_keys=True): v for v in validated
        }
        for entry in payload["ranked"][: args.validate_top]:
            entry["simulated"] = by_plan[
                json.dumps(entry["plan"], sort_keys=True)
            ]
    if args.as_json:
        print(json.dumps(payload, indent=2))
        return 0
    artifact = payload["artifact"]
    print(f"topology     : {payload['topology']}")
    print(f"traffic      : {payload['source_rate'] / M:.1f}M tuples/min")
    print(f"plans scored : {payload['plan_count']} "
          f"in {elapsed * 1000:.1f} ms (one calibration)")
    print(f"artifact     : {artifact['hash'][:12]} "
          f"(revision {artifact['plan_revision']}, "
          f"data v{artifact['data_version']})")
    for entry in payload["ranked"]:
        cores = entry["estimated_cpu_cores"]
        line = (
            f"  #{entry['rank']:<3} {entry['plan']} "
            f"out={entry['output_rate'] / M:.1f}M "
            f"sat={entry['saturation_source_rate'] / M:.1f}M "
            f"risk={entry['backpressure_risk']}"
            + (f" cpu={cores:.1f}" if cores is not None else "")
        )
        simulated = entry.get("simulated")
        if simulated:
            line += (
                f" | sim out={simulated['output_tpm'] / M:.1f}M "
                f"bp={simulated['backpressure_ms']:.0f}ms"
            )
        print(line)
    return 0


def _cmd_matrix(args) -> int:
    from repro.workloads import SHAPES, report_json, run_matrix

    shapes = SHAPES
    if args.shapes:
        shapes = tuple(s.strip() for s in args.shapes.split(",") if s.strip())
        unknown = [s for s in shapes if s not in SHAPES]
        if unknown:
            raise SystemExit(
                f"unknown shapes {unknown}; known: {list(SHAPES)}"
            )
    report = run_matrix(
        seed=args.seed,
        cells=args.cells,
        shapes=shapes,
        calibration_minutes=args.minutes,
    )
    if args.report:
        Path(args.report).write_text(report_json(report), encoding="utf8")
    summary = report["summary"]
    if args.as_json:
        print(report_json(report), end="")
    else:
        print(f"{'cell':<42} {'arrival':>8} {'cpu':>8} {'deg':>4} "
              f"{'trace':>12} verdict")
        for cell in report["cells"]:
            if cell["error"]:
                print(f"  {cell['id']:<40} {'-':>8} {'-':>8} {'-':>4} "
                      f"{'-':>12} ERROR: {cell['error']}")
                continue
            print(
                f"  {cell['id']:<40} {cell['arrival_mape']:>8.4f} "
                f"{cell['cpu_mape']:>8.4f} {cell['degraded_warnings']:>4} "
                f"{cell['trace_hash'][:12]:>12} "
                f"{'pass' if cell['passed'] else 'FAIL'}"
            )
        print(f"cells  : {summary['cells']} "
              f"({summary['passed']} passed, {summary['failed']} failed)")
        if summary["worst_arrival_mape"] is not None:
            print(f"worst  : arrival {summary['worst_arrival_mape']:.4f}, "
                  f"cpu {summary['worst_cpu_mape']:.4f}")
        if args.report:
            print(f"report : {args.report}")
    return 0 if summary["ok"] else 1


def _cmd_serving_stats(args) -> int:
    from repro.api.client import CaladriusClient

    client = CaladriusClient(args.host, args.port, retries=1)
    stats = client.serving_stats()
    if args.as_json:
        print(json.dumps(stats, indent=2))
        return 0
    if not stats.get("enabled", False):
        print("serving layer: disabled")
        return 0
    print(f"requests     : {stats['requests']}")
    print(f"hit rate     : {stats['hit_rate']:.1%} ({stats['hits']} hits)")
    print(f"computations : {stats['computations']}")
    print(f"coalesced    : {stats['coalesced']}")
    print(f"shed (429)   : {stats['shed']}")
    print(f"queue depth  : {stats['queue_depth']}")
    print(f"precomputed  : {stats['precomputed']}")
    cache = stats["cache"]
    print(f"cache        : {cache['entries']} entries, "
          f"{cache['bytes'] / 1024:.1f} KiB / "
          f"{cache['max_bytes'] / (1024 * 1024):.0f} MiB, "
          f"{cache['evictions']} evicted, "
          f"{cache['invalidations']} invalidated")
    return 0


def _cmd_forecast(args) -> int:
    params = WordCountParams()
    topology, packing, logic = build_word_count(params)
    store = MetricsStore()
    sim = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=args.seed)
    )
    cycle = 120.0
    for minute in range(args.history_minutes):
        rate = 10 * M + 6 * M * np.sin(2 * np.pi * minute / cycle)
        sim.set_source_rate("sentence-spout", max(0.0, rate))
        sim.run(1)
    tracker = TopologyTracker()
    tracker.register(topology, packing)
    if args.model == "prophet":
        from repro.forecasting.prophet_lite import ProphetLite, Seasonality

        traffic_model = ProphetTrafficModel(
            tracker,
            store,
            make_forecaster=lambda: ProphetLite(
                seasonalities=[Seasonality("cycle", cycle * 60, 4)],
                n_changepoints=5,
            ),
        )
    else:
        traffic_model = StatsSummaryTrafficModel(tracker, store)
    prediction = traffic_model.predict(
        "word-count", None, args.horizon_minutes
    )
    if args.as_json:
        print(json.dumps(prediction.as_dict(), indent=2))
    else:
        print(f"model   : {prediction.model}")
        print(f"horizon : {prediction.horizon_minutes} minutes")
        for key in ("mean", "median", "min", "max", "upper_max"):
            print(f"{key:>9}: {prediction.summary[key] / M:.2f}M tuples/min")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
