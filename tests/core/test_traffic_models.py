"""Tests for the Caladrius traffic-model tier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.traffic_models import (
    ProphetTrafficModel,
    StatsSummaryTrafficModel,
)
from repro.errors import ModelError
from repro.forecasting.summary import SummaryForecaster
from repro.heron.metrics import MetricNames
from repro.heron.tracker import TopologyTracker
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.store import MetricsStore

M = 1e6


@pytest.fixture(scope="module")
def traffic_setup():
    """A registered topology with 3 hours of seasonal spout traffic."""
    topology, packing, _ = build_word_count(
        WordCountParams(spout_parallelism=2)
    )
    tracker = TopologyTracker()
    tracker.register(topology, packing)
    store = MetricsStore()
    rng = np.random.default_rng(0)
    minutes = 180
    for i in range(2):  # two spout instances with different scales
        scale = 1.0 + i
        for minute in range(minutes):
            t = minute * 60
            value = scale * (
                5 * M + 2 * M * np.sin(2 * np.pi * minute / 60.0)
            ) + rng.normal(0, 0.05 * M)
            store.write(
                MetricNames.SOURCE_COUNT,
                t,
                max(0.0, value),
                {
                    "topology": "word-count",
                    "component": "sentence-spout",
                    "instance": f"sentence-spout_{i}",
                    "container": "1",
                },
            )
    return tracker, store


def hourly_forecaster():
    # An hourly "seasonality" matching the synthetic 60-minute cycle.
    from repro.forecasting.prophet_lite import ProphetLite, Seasonality

    return ProphetLite(
        seasonalities=[Seasonality("hourly", 3600, 3)], n_changepoints=3
    )


class TestProphetTrafficModel:
    def test_aggregate_mode(self, traffic_setup):
        tracker, store = traffic_setup
        model = ProphetTrafficModel(
            tracker, store, make_forecaster=hourly_forecaster
        )
        prediction = model.predict("word-count", None, horizon_minutes=30)
        assert prediction.model == "prophet"
        assert prediction.horizon_minutes == 30
        # Ground truth over minutes 180..209: the summed traffic is
        # 15M + 6M*sin(2*pi*m/60), whose mean over that half-cycle is
        # 15M + 6M * 2/pi ~= 18.8M.
        truth = np.mean(
            [
                15 * M + 6 * M * np.sin(2 * np.pi * m / 60.0)
                for m in range(180, 210)
            ]
        )
        assert prediction.summary["mean"] == pytest.approx(truth, rel=0.1)
        assert "sentence-spout" in prediction.per_spout
        assert prediction.per_instance == {}

    def test_per_instance_mode(self, traffic_setup):
        tracker, store = traffic_setup
        model = ProphetTrafficModel(
            tracker,
            store,
            per_instance=True,
            make_forecaster=hourly_forecaster,
        )
        prediction = model.predict("word-count", None, horizon_minutes=30)
        assert set(prediction.per_instance) == {
            "sentence-spout_0",
            "sentence-spout_1",
        }
        inst0 = prediction.per_instance["sentence-spout_0"]["mean"]
        inst1 = prediction.per_instance["sentence-spout_1"]["mean"]
        assert inst1 == pytest.approx(2 * inst0, rel=0.2)

    @pytest.mark.parametrize("source_minutes", [None, 45])
    def test_per_instance_reads_only_its_own_topology(
        self, traffic_setup, source_minutes
    ):
        """Two topologies share the spout's name (and instance ids); the
        per-instance forecasts of each are what the parent's loop — list
        every ``source-count`` key, then one full-store ``aggregate`` per
        instance — produced, and a series that splits one instance over
        two containers is still summed into it."""
        tracker, first = traffic_setup
        store = MetricsStore()
        for key, series in first.query(MetricNames.SOURCE_COUNT).items():
            for topology, scale in (("word-count", 1.0), ("word-count-b", 3.0)):
                store.write_many(
                    key.name, [(t, scale * v) for t, v in series],
                    {**key.tag_dict(), "topology": topology},
                )
        store.write_many(
            MetricNames.SOURCE_COUNT, [(t, 1e5) for t in range(0, 180 * 60, 60)],
            {"topology": "word-count", "component": "sentence-spout",
             "instance": "sentence-spout_1", "container": "2"},
        )
        model = ProphetTrafficModel(
            tracker, store, per_instance=True, make_forecaster=hourly_forecaster
        )
        prediction = model.predict("word-count", source_minutes, horizon_minutes=30)

        expected = {}
        for instance in ("sentence-spout_0", "sentence-spout_1"):
            series = store.aggregate(MetricNames.SOURCE_COUNT, {
                "topology": "word-count", "component": "sentence-spout",
                "instance": instance,
            })
            if source_minutes is not None:
                series = series.tail(source_minutes)
            forecast = hourly_forecaster().fit(series).forecast(30, step_seconds=60)
            expected[instance] = forecast.summary()
        assert prediction.per_instance == expected
        solo = ProphetTrafficModel(
            tracker, first, per_instance=True, make_forecaster=hourly_forecaster
        ).predict("word-count", source_minutes, horizon_minutes=30)
        assert prediction.per_instance["sentence-spout_0"] == (
            solo.per_instance["sentence-spout_0"]
        )

    def test_source_window_restricts_history(self, traffic_setup):
        tracker, store = traffic_setup
        model = ProphetTrafficModel(
            tracker, store, make_forecaster=lambda: SummaryForecaster("mean")
        )
        full = model.predict("word-count", None, 10)
        windowed = model.predict("word-count", 30, 10)
        assert full.summary["mean"] != windowed.summary["mean"]

    def test_horizon_validation(self, traffic_setup):
        tracker, store = traffic_setup
        model = ProphetTrafficModel(tracker, store)
        with pytest.raises(ModelError):
            model.predict("word-count", None, 0)

    def test_factory_conflicts_with_options(self, traffic_setup):
        tracker, store = traffic_setup
        with pytest.raises(ModelError, match="conflict"):
            ProphetTrafficModel(
                tracker,
                store,
                make_forecaster=hourly_forecaster,
                n_changepoints=3,
            )

    def test_forecaster_options_forwarded(self, traffic_setup):
        tracker, store = traffic_setup
        model = ProphetTrafficModel(tracker, store, n_changepoints=2)
        prediction = model.predict("word-count", None, 5)
        assert len(prediction.per_spout) == 1

    def test_as_dict_is_json_friendly(self, traffic_setup):
        import json

        tracker, store = traffic_setup
        model = ProphetTrafficModel(
            tracker, store, make_forecaster=hourly_forecaster
        )
        prediction = model.predict("word-count", None, 10)
        assert json.dumps(prediction.as_dict())


class TestStatsSummaryTrafficModel:
    def test_mean_projection(self, traffic_setup):
        tracker, store = traffic_setup
        model = StatsSummaryTrafficModel(tracker, store, statistic="mean")
        prediction = model.predict("word-count", None, 15)
        assert prediction.model == "stats-summary-mean"
        assert prediction.summary["mean"] == pytest.approx(15 * M, rel=0.15)

    def test_peak_statistic_exceeds_mean(self, traffic_setup):
        tracker, store = traffic_setup
        mean_model = StatsSummaryTrafficModel(tracker, store, "mean")
        max_model = StatsSummaryTrafficModel(tracker, store, "max")
        mean_pred = mean_model.predict("word-count", None, 5)
        max_pred = max_model.predict("word-count", None, 5)
        assert max_pred.summary["mean"] > mean_pred.summary["mean"]

    def test_unknown_topology(self, traffic_setup):
        tracker, store = traffic_setup
        model = StatsSummaryTrafficModel(tracker, store)
        from repro.errors import TopologyError

        with pytest.raises(TopologyError):
            model.predict("missing", None, 5)
