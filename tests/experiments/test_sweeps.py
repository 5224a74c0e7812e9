"""Tests for the sweep harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.experiments.sweeps import run_point, run_sweep
from repro.heron.wordcount import WordCountParams
from repro.timeseries.store import MetricsStore

M = 1e6


@pytest.fixture(scope="module")
def small_sweep():
    params = WordCountParams(
        spout_parallelism=2, splitter_parallelism=1, counter_parallelism=2
    )
    return run_sweep(
        params,
        [4 * M, 8 * M, 14 * M],
        runs=2,
        seed=1,
        warmup_minutes=1,
        measure_minutes=1,
    )


class TestRunPoint:
    def test_point_fields(self):
        params = WordCountParams(
            spout_parallelism=2, splitter_parallelism=1, counter_parallelism=2
        )
        point = run_point(params, 6 * M, seed=3, warmup_minutes=1, measure_minutes=1)
        assert point.source_tpm == 6 * M
        assert point.component_input["splitter"] == pytest.approx(
            6 * M, rel=0.05
        )
        assert point.component_output["splitter"] == pytest.approx(
            7.635 * 6 * M, rel=0.05
        )
        assert point.instance_input["splitter"].shape == (1,)
        assert point.instance_cpu["counter"].shape == (2,)
        assert point.backpressure_ms == 0.0

    def test_one_frame_read_per_point(self, monkeypatch):
        """A point is read as calibration reads a topology: one
        ``topology_frame``, no per-metric ``aggregate``."""
        calls = {"aggregate": 0, "topology_frame": 0}
        for method in calls:
            original = getattr(MetricsStore, method)

            def counted(self, *args, _original=original, _name=method, **kw):
                calls[_name] += 1
                return _original(self, *args, **kw)

            monkeypatch.setattr(MetricsStore, method, counted)
        params = WordCountParams(
            spout_parallelism=2, splitter_parallelism=1, counter_parallelism=2
        )
        run_point(params, 6 * M, seed=3, warmup_minutes=1, measure_minutes=1)
        assert calls == {"aggregate": 0, "topology_frame": 1}

    def test_validation(self):
        params = WordCountParams()
        with pytest.raises(SimulationError):
            run_point(params, 1 * M, seed=0, warmup_minutes=0)
        with pytest.raises(SimulationError):
            run_sweep(params, [1 * M], runs=0)


class TestSweepResult:
    def test_rates_are_unique_sorted(self, small_sweep):
        assert list(small_sweep.rates()) == [4 * M, 8 * M, 14 * M]

    def test_series_shapes(self, small_sweep):
        series = small_sweep.series("splitter", "input")
        assert series["mean"].shape == (3,)
        assert np.all(series["low"] <= series["high"])

    def test_backpressure_series(self, small_sweep):
        series = small_sweep.series("splitter", "backpressure")
        # 14M > the single splitter instance's 11M SP: backpressure.
        assert series["mean"][-1] > 10_000
        assert series["mean"][0] == 0.0

    def test_observations_flatten_runs(self, small_sweep):
        x, y = small_sweep.observations("splitter", "output")
        assert x.shape == (6,)  # 3 rates x 2 runs
        assert np.all(y >= 0)

    def test_instance_observations(self, small_sweep):
        inputs, cpus = small_sweep.instance_observations("splitter")
        assert inputs.shape == cpus.shape == (6,)
        assert np.all(cpus > 0)

    def test_repetitions_differ_by_seed(self, small_sweep):
        x, y = small_sweep.observations("splitter", "input")
        first_run = y[:3]
        second_run = y[3:]
        assert not np.array_equal(first_run, second_run)
