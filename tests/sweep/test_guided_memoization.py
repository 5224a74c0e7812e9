"""The guided scaler calibrates once per observation window.

Candidate evaluation fans out through the plan-sweep kernel against the
calibration the engine's cache holds — however many plans
`_best_candidate` scores, the metrics store is read exactly once per
window.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.calibration_cache as cache_module
from repro.autoscaler import ModelGuidedScaler, SimulatedCluster
from repro.heron.simulation import SimulationConfig
from repro.heron.wordcount import WordCountParams

M = 1e6
DEMAND = 40 * M
ALPHA = 7.635
SLO = 0.95 * ALPHA * DEMAND


def test_one_calibration_per_sizing_pass(monkeypatch):
    cluster = SimulatedCluster(
        word_count_params=WordCountParams(
            splitter_parallelism=2, counter_parallelism=2
        ),
        config=SimulationConfig(seed=3),
    )
    for rate in np.arange(8 * M, DEMAND + 1, 8 * M):
        cluster.set_source_rate("sentence-spout", float(rate))
        cluster.run(2)

    calls = {"n": 0}
    original = cache_module.calibrate_topology

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cache_module, "calibrate_topology", counting)
    scaler = ModelGuidedScaler(cluster, slo_output_tpm=SLO, observe_minutes=3)
    trace = scaler.run(source_tpm=DEMAND)

    # One sizing pass scored the proposal plus its whole neighborhood,
    # yet the window was calibrated exactly once.
    assert calls["n"] == 1
    assert len(trace.rounds) == 2


def test_repeat_artifact_requests_reuse_the_window(monkeypatch):
    cluster = SimulatedCluster(
        word_count_params=WordCountParams(
            splitter_parallelism=2, counter_parallelism=2
        ),
        config=SimulationConfig(seed=4),
    )
    cluster.set_source_rate("sentence-spout", 20 * M)
    cluster.run(3)
    cluster.set_source_rate("sentence-spout", 35 * M)
    cluster.run(4)

    scaler = ModelGuidedScaler(cluster, slo_output_tpm=SLO, observe_minutes=3)
    first = scaler._engine.artifact("word-count", since_seconds=0)
    second = scaler._engine.artifact("word-count", since_seconds=0)
    assert first is second
    # A different window is a different cache entry, not a stale reuse.
    other = scaler._engine.artifact("word-count", since_seconds=60)
    assert other is not first
    assert other.since_seconds == 60
