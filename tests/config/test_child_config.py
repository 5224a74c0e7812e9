"""A cluster child runs the router's configuration.

The router hands each worker and follower ``--config`` plus the setting
flags it was given; each child resolves them through its own path
(``cli._resolve``), in-process here.  What may differ is what makes the
child itself: its port, its data directory and, for a follower, the
serving layer (off: it only answers reads over replicated state).
"""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest

from repro import cli

#: A value for every setting flag; the file sets what no flag does.
FLAGS = {
    "--host": "127.0.0.1",
    "--port": "18080",
    "--shards": "3",
    "--replicate": None,
    "--sync-ship": None,
    "--cache-mb": "8",
    "--max-queue": "5",
    "--no-serving": None,
    "--data-dir": "{root}",
    "--fsync": "always",
    "--drain-timeout": "2.5",
}
FILE = """\
caladrius:
  traffic_models: [stats-summary]
  performance_models: [throughput-prediction]
  model_options: {{stats-summary: {{statistic: median, window: 30}}}}
  log_level: DEBUG
  degraded_threshold: 0.4
  api: {{host: 127.0.0.2, port: 9000}}
  serving: {{cache_mb: 16, ttl_seconds: null, precompute_top_k: 2}}
  durability: {{fsync_interval_seconds: 0.2, segment_max_bytes: 65536}}
  cluster:
    virtual_nodes: 32
    ship_interval_seconds: 0.1
    unresponsive_timeout_seconds: 0
    {cluster}
  ingest: {{commit_max_frames: 64}}
"""


def test_every_setting_flag_is_given_a_value():
    assert set(FLAGS) == set(cli.SETTING_FLAGS)


def _argv(flags: dict[str, str | None], root) -> list[str]:
    argv: list[str] = []
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value.format(root=root)]
    return argv


@pytest.mark.parametrize(
    "cluster, flags",
    [
        ("", FLAGS),  # every setting flag over the file
        # only the file, the cluster section included
        ("shards: 2\n    replicate: true\n    sync_ship: true",
         {"--data-dir": "{root}"}),
    ],
    ids=["flags", "file"],
)
def test_worker_and_follower_resolve_the_routers_config(tmp_path, cluster, flags):
    path = tmp_path / "caladrius.yaml"
    path.write_text(FILE.format(cluster=cluster))
    root = tmp_path / "data"
    parser = cli.build_parser()
    args = parser.parse_args(
        ["serve", "--config", str(path), "--demo", *_argv(flags, root)]
    )
    router = cli._resolve(args)
    assert router.cluster.replicate and router.log_level == "DEBUG"

    worker_argv = cli._worker_argv(args, router, 1, "127.0.0.1:7001", 4)
    assert worker_argv[:3] == [sys.executable, "-m", "repro.cli"]
    worker_args = parser.parse_args(worker_argv[3:])
    assert (worker_args.shard_id, worker_args.epoch, worker_args.ship_to) == (
        1, 4, "127.0.0.1:7001"
    )
    assert worker_args.demo
    assert cli._resolve(worker_args) == replace(
        router,
        api=replace(router.api, port=0),
        durability=replace(router.durability, data_dir=str(root / "shard-1")),
    )

    follower_args = parser.parse_args(cli._follower_argv(args, router, 1)[3:])
    assert follower_args.replica_dir == str(root / "replica-1")
    assert cli._resolve(follower_args) == replace(
        router,
        api=replace(router.api, port=0),
        durability=replace(router.durability, data_dir=str(root / "replica-1")),
        serving=replace(router.serving, enabled=False),
    )


def test_a_follower_takes_any_free_port_unless_given_one(tmp_path):
    path = tmp_path / "caladrius.yaml"
    path.write_text("api: {port: 9000}\n")
    parser = cli.build_parser()
    argv = ["follow", "--replica-dir", str(tmp_path / "r"), "--config", str(path)]
    assert cli._resolve(parser.parse_args(argv)).api_port == 0
    assert cli._resolve(parser.parse_args(argv + ["--port", "9001"])).api_port == 9001
