"""Tests for the command-line interface."""

from __future__ import annotations

import json
import logging
import os
import socket
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from tests.source_index import ROOT


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--rate", "1e6"])
        args = build_parser().parse_args(
            ["simulate", "--rate", "1000000"]
        )
        assert args.minutes == 5
        assert args.splitter == 3

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])


class TestSimulate:
    def test_table_output(self, capsys):
        code = main(
            ["simulate", "--rate", "8000000", "--minutes", "2",
             "--splitter", "1", "--counter", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "splitter in" in out
        assert out.count("\n") >= 3

    def test_json_output(self, capsys):
        code = main(
            ["simulate", "--rate", "8000000", "--minutes", "2",
             "--splitter", "1", "--counter", "2", "--json"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert rows[0]["splitter_in_tpm"] == pytest.approx(8e6, rel=0.05)

    def test_saturated_rate_shows_backpressure(self, capsys):
        main(
            ["simulate", "--rate", "14000000", "--minutes", "3",
             "--splitter", "1", "--counter", "2", "--json"]
        )
        rows = json.loads(capsys.readouterr().out)
        assert rows[-1]["backpressure_ms"] > 10_000


class TestPredict:
    def test_plain_output(self, capsys):
        code = main(["predict", "--rate", "30000000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "risk" in out
        assert "saturation" in out

    def test_json_with_proposal(self, capsys):
        code = main(
            ["predict", "--rate", "30000000",
             "--propose", "splitter=4,counter=6", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parallelisms"]["splitter"] == 4
        assert payload["parallelisms"]["counter"] == 6
        assert payload["backpressure_risk"] == "low"

    def test_bad_proposal_string(self):
        with pytest.raises(SystemExit):
            main(["predict", "--rate", "1000000", "--propose", "nonsense"])


class TestForecast:
    def test_stats_summary_model(self, capsys):
        code = main(
            ["forecast", "--history-minutes", "60",
             "--horizon-minutes", "10", "--model", "stats-summary"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stats-summary" in out

    def test_prophet_json(self, capsys):
        code = main(
            ["forecast", "--history-minutes", "120",
             "--horizon-minutes", "10", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "prophet"
        assert payload["summary"]["mean"] > 0


class TestServe:
    def test_serve_once_with_demo(self, capsys):
        code = main(["serve", "--demo", "--port", "0", "--once"])
        assert code == 0
        assert "caladrius serving on" in capsys.readouterr().out

    def test_serve_once_empty(self, capsys):
        code = main(["serve", "--port", "0", "--once"])
        assert code == 0

    def test_serve_with_config(self, tmp_path, capsys):
        config = tmp_path / "c.yaml"
        config.write_text(
            "caladrius:\n  traffic_models: [stats-summary]\n"
        )
        code = main(
            ["serve", "--config", str(config), "--port", "0", "--once"]
        )
        assert code == 0

    def test_config_api_section_is_served_unless_flags_override(
        self, tmp_path, capsys
    ):
        with socket.socket() as probe:  # a port nothing else holds
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        config = tmp_path / "c.yaml"
        config.write_text(
            f"caladrius:\n  api: {{host: 127.0.0.1, port: {port}}}\n"
        )
        assert main(["serve", "--config", str(config), "--once"]) == 0
        assert f"serving on 127.0.0.1:{port}" in capsys.readouterr().out
        argv = ["serve", "--config", str(config), "--port", "0", "--once"]
        assert main(argv) == 0
        assert f":{port}\n" not in capsys.readouterr().out

    def test_serve_bad_config_is_reported(self, tmp_path, capsys):
        config = tmp_path / "c.yaml"
        config.write_text("caladrius:\n  traffic_models: [nope]\n")
        code = main(
            ["serve", "--config", str(config), "--port", "0", "--once"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_follow_refuses_a_data_dir(self, tmp_path, capsys, monkeypatch):
        """A follower serves its replica directory; ``--data-dir`` used
        to be dropped for it without a word (and the follower served)."""
        from repro.cluster import follower

        def opened(*args, **kwargs):
            raise AssertionError("follow opened a replica")

        monkeypatch.setattr(follower.FollowerReplica, "__init__", opened)
        replica, data = tmp_path / "replica", tmp_path / "data"
        code = main(
            ["follow", "--replica-dir", str(replica), "--data-dir", str(data)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--replica-dir" in err
        assert not replica.exists() and not data.exists()  # nothing opened

    @pytest.mark.parametrize("level", ["DEBUG", None])
    def test_log_level_is_applied(self, tmp_path, level):
        """In a child process: under pytest the root logger already has
        handlers, which makes ``logging.basicConfig`` a no-op."""
        argv = ["serve", "--once", "--port", "0", "--data-dir", str(tmp_path / "d")]
        if level is not None:
            config = tmp_path / "c.yaml"
            config.write_text(f"caladrius:\n  log_level: {level}\n")
            argv += ["--config", str(config)]
        script = (
            "import logging, sys; from repro.cli import main; "
            f"code = main({argv!r}); "
            "print('level', logging.getLogger('repro').getEffectiveLevel()); "
            "sys.exit(code)"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=60,
        )
        assert child.returncode == 0, child.stderr
        expected = logging.DEBUG if level == "DEBUG" else logging.INFO
        assert f"level {expected}" in child.stdout
        # The recovery summary is an INFO line of ``repro.durability.store``.
        assert "INFO:repro.durability.store:recovered data_dir=" in child.stderr


class TestSimulateYamlTopology:
    def test_yaml_topology_runs(self, tmp_path, capsys):
        path = tmp_path / "topo.yaml"
        path.write_text(
            "topology: cli-yaml\n"
            "components:\n"
            "  src: {kind: spout, parallelism: 2, streams: {default: 1.0}}\n"
            "  work: {kind: bolt, parallelism: 2, capacity_tpm: 5000000}\n"
            "connections:\n"
            "  - {from: src, to: work}\n"
        )
        code = main(
            ["simulate", "--rate", "2000000", "--minutes", "2",
             "--topology", str(path), "--json"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["work_in_tpm"] == pytest.approx(2e6, rel=0.05)

    def test_missing_yaml_reports_error(self, tmp_path, capsys):
        code = main(
            ["simulate", "--rate", "1000000",
             "--topology", str(tmp_path / "nope.yaml")]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err


class TestMatrix:
    def test_report_byte_identical_across_runs(self, tmp_path, capsys):
        first_path = tmp_path / "first.json"
        second_path = tmp_path / "second.json"
        for path in (first_path, second_path):
            code = main(
                ["matrix", "--seed", "7", "--cells", "4",
                 "--report", str(path)]
            )
            assert code == 0
        assert first_path.read_bytes() == second_path.read_bytes()
        report = json.loads(first_path.read_text())
        assert report["schema"] == "caladrius.matrix_report/v1"
        assert len(report["cells"]) == 4
        assert report["summary"]["ok"] is True

    def test_table_output_lists_cells(self, capsys):
        code = main(["matrix", "--seed", "7", "--cells", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "diamond/crash/steady" in out
        assert "fanin/crash/steady" in out

    def test_json_output(self, capsys):
        code = main(
            ["matrix", "--seed", "7", "--cells", "1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["cells"] == 1

    def test_unknown_shape_rejected(self):
        with pytest.raises(SystemExit):
            main(["matrix", "--shapes", "pentagon"])
