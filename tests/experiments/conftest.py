"""One quick evaluation per session, shared by every test here."""

from __future__ import annotations

import pytest

from repro.experiments.runner import SECTIONS, Run
from tests.experiments import accuracy


@pytest.fixture(scope="session")
def quick_run() -> Run:
    """Every runner section at the quick scale, computed once: the figure
    tests, the runner tests and the accuracy ratchet all read this run."""
    run = Run(quick=True)
    run.records(SECTIONS)
    return run


@pytest.fixture(scope="session")
def committed() -> dict:
    """The committed ``ACCURACY.json``."""
    return accuracy.load()


@pytest.fixture(scope="session")
def scales(quick_run, committed) -> list[dict]:
    """The fresh quick records and the committed full-scale ones: every
    bound the figure tests state holds at both scales."""
    return [quick_run.records(SECTIONS), committed["full"]]
