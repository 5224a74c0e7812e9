"""Tests for the accuracy runner's command line and document."""

from __future__ import annotations

import json

import pytest

from repro.experiments import runner
from repro.experiments.records import dumps
from repro.experiments.runner import SECTIONS, main


class TestRunner:
    def test_subset_selection(self, quick_run, capsys):
        """A fresh ``--only`` run prints exactly its slice of the session's
        document, byte for byte: two runs in one process agree."""
        assert main(["--quick", "--only", "fig10"]) == 0
        out = capsys.readouterr().out
        assert out == dumps({"quick": quick_run.records(["fig10"])})

    def test_invalid_section_rejected(self):
        with pytest.raises(SystemExit):
            main(["--only", "fig99"])

    def test_sections_cover_all_figures(self):
        assert set(SECTIONS) == {
            "fig04-06", "fig07-08", "fig09", "fig10", "fig11-12",
            "skew", "stmgr", "watermarks", "forecast", "traffic-modes",
            "risk", "latency", "autoscaler", "faults", "matrix",
        }

    def test_quick_full_run_prints_every_group(self, quick_run, capsys, monkeypatch):
        monkeypatch.setattr(runner, "Run", lambda quick: quick_run)
        assert main(["--quick"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert list(document) == ["quick"]
        assert set(document["quick"]) == set(SECTIONS)
        assert all(document["quick"].values())

    def test_without_quick_both_scales_are_printed(self, quick_run, capsys, monkeypatch):
        monkeypatch.setattr(runner, "Run", lambda quick: quick_run)
        assert main(["--only", "risk"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["full"] == document["quick"] == quick_run.records(["risk"])
