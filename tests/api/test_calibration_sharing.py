"""The service calibrates a topology once per data version.

Both performance models of a default request, a following plan sweep and
the serving tier's re-warm pass share the app's one
:class:`~repro.core.calibration_cache.CalibrationCache`: however many
consumers ask, only a metrics write or a redeploy causes another
``calibrate_topology``.
"""

from __future__ import annotations

import pytest

import repro.core.calibration_cache as cache_module
from repro.api.app import CaladriusApp
from repro.config import load_config

M = 1e6
PREDICT = "/model/topology/heron/word-count"
SWEEP = "/model/plan_sweep/heron/word-count"
PLANS = [{"splitter": s, "counter": c} for s in (2, 3) for c in (4, 6)]


@pytest.fixture()
def calibrations(monkeypatch):
    """A counting wrapper around the cache's ``calibrate_topology``."""
    calls = []
    original = cache_module.calibrate_topology

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cache_module, "calibrate_topology", counting)
    return calls


@pytest.fixture()
def app(deployed_wordcount):
    _, _, _, store, tracker = deployed_wordcount
    application = CaladriusApp(load_config({}), tracker, store)
    yield application
    application.shutdown()


def _write(store) -> None:
    """One sample that moves word-count's data version and nothing else
    (the session's store is shared, so stay ahead of every other test)."""
    store.write(
        "calibration-sharing-probe", store.latest_timestamp() + 60, 1.0,
        {"topology": "word-count"},
    )


def test_default_two_model_predict_calibrates_once(app, calibrations):
    status, payload = app.handle(
        "POST", PREDICT, body={"source_rate": 20 * M}
    )
    assert status == 200
    assert [r["model"] for r in payload["results"]] == [
        "throughput-prediction", "backpressure-evaluation",
    ]
    assert len(calibrations) == 1
    # A distinct request misses the result cache, not the calibration.
    status, _ = app.handle(
        "POST", PREDICT,
        body={"source_rate": 25 * M, "parallelisms": {"splitter": 4}},
    )
    assert status == 200
    assert len(calibrations) == 1


def test_predict_sweep_and_rewarm_share_one_calibration_per_write(
    app, calibrations, deployed_wordcount
):
    store = deployed_wordcount[3]
    for rate in (18 * M, 22 * M, 26 * M):
        assert app.handle("POST", PREDICT, body={"source_rate": rate})[0] == 200
    status, swept = app.handle(
        "POST", SWEEP, body={"source_rate": 30 * M, "plans": PLANS}
    )
    assert status == 200
    assert len(calibrations) == 1
    assert app.sweep_engine.stats()["artifact_misses"] == 1

    # Re-warm with nothing written: the evicted results are recomputed
    # from the calibration already held.
    app.serving.cache.invalidate_topology("word-count")
    assert app.serving.precomputer.invalidate("word-count") == 4
    assert app.serving.precompute_now() == 4
    assert len(calibrations) == 1

    # One write invalidates four popular descriptors (three of them
    # running two models each); re-warming them costs one calibration.
    _write(store)
    assert app.serving.precompute_now() == 4
    assert len(calibrations) == 2
    status, again = app.handle(
        "POST", SWEEP, body={"source_rate": 30 * M, "plans": PLANS}
    )
    assert status == 200
    assert again["artifact"]["data_version"] > swept["artifact"]["data_version"]
    assert len(calibrations) == 2

    stats = app.handle("GET", "/serving/stats")[1]["calibration"]
    assert stats["misses"] == 2
    assert stats["entries"] == 1
    assert stats["hits"] >= 8


def test_health_verdict_is_assessed_once_per_data_version(
    app, monkeypatch, deployed_wordcount
):
    store = deployed_wordcount[3]
    assessed = []
    original = cache_module.assess_topology_metrics

    def counting(*args, **kwargs):
        assessed.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cache_module, "assess_topology_metrics", counting)
    for rate in (18 * M, 22 * M):
        assert app.handle("POST", PREDICT, body={"source_rate": rate})[0] == 200
    assert len(assessed) == 1
    _write(store)
    assert app.handle("POST", PREDICT, body={"source_rate": 18 * M})[0] == 200
    assert len(assessed) == 2


def test_serving_stats_reports_calibration_without_the_serving_layer(
    deployed_wordcount,
):
    _, _, _, store, tracker = deployed_wordcount
    app = CaladriusApp(
        load_config({"serving": {"enabled": False}}), tracker, store
    )
    try:
        assert app.handle("POST", PREDICT, body={"source_rate": 20 * M})[0] == 200
        status, stats = app.handle("GET", "/serving/stats")
        assert status == 200
        assert stats["enabled"] is False
        assert stats["calibration"] == {"hits": 1, "misses": 1, "entries": 1}
    finally:
        app.shutdown()
