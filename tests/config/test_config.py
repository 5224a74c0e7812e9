"""Tests for configuration loading and the model registry."""

from __future__ import annotations

import pytest

from repro.config import build_registry, load_config
from repro.core.performance_models import (
    BackpressureEvaluationModel,
    ThroughputPredictionModel,
)
from repro.core.traffic_models import (
    ProphetTrafficModel,
    StatsSummaryTrafficModel,
)
from repro.errors import ConfigError
from repro.heron.tracker import TopologyTracker
from repro.timeseries.store import MetricsStore


class TestLoadConfig:
    def test_defaults_from_empty_document(self):
        config = load_config({})
        assert config.traffic_models == ("prophet", "stats-summary")
        assert "throughput-prediction" in config.performance_models
        assert config.api_port == 8080

    def test_nested_caladrius_section(self):
        config = load_config(
            {"caladrius": {"traffic_models": ["stats-summary"]}}
        )
        assert config.traffic_models == ("stats-summary",)

    def test_model_options(self):
        config = load_config(
            {
                "model_options": {
                    "stats-summary": {"statistic": "p90", "window": 120}
                }
            }
        )
        assert config.options_for("stats-summary") == {
            "statistic": "p90",
            "window": 120,
        }
        assert config.options_for("prophet") == {}

    def test_yaml_file_round_trip(self, tmp_path):
        path = tmp_path / "caladrius.yaml"
        path.write_text(
            "caladrius:\n"
            "  traffic_models: [prophet]\n"
            "  performance_models: [backpressure-evaluation]\n"
            "  api: {host: 0.0.0.0, port: 9090}\n"
            "  log_level: DEBUG\n"
        )
        config = load_config(path)
        assert config.traffic_models == ("prophet",)
        assert config.api_host == "0.0.0.0"
        assert config.api_port == 9090
        assert config.log_level == "DEBUG"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "missing.yaml")

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown traffic_models"):
            load_config({"traffic_models": ["arima"]})

    def test_empty_model_list_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            load_config({"performance_models": []})

    def test_bad_port(self):
        with pytest.raises(ConfigError, match="port"):
            load_config({"api": {"port": -1}})

    def test_bad_host(self):
        with pytest.raises(ConfigError, match="host"):
            load_config({"api": {"host": ""}})

    def test_bad_log_level(self):
        with pytest.raises(ConfigError, match="log_level"):
            load_config({"log_level": "TRACE"})

    def test_bad_model_options_shape(self):
        with pytest.raises(ConfigError, match="model_options"):
            load_config({"model_options": {"prophet": "yes"}})

    def test_non_mapping_root(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(path)


class TestRegistry:
    def test_default_registry_instantiates_all_models(self):
        config = load_config({})
        registry = build_registry(config, TopologyTracker(), MetricsStore())
        assert isinstance(registry.traffic["prophet"], ProphetTrafficModel)
        assert isinstance(
            registry.traffic["stats-summary"], StatsSummaryTrafficModel
        )
        assert isinstance(
            registry.performance["throughput-prediction"],
            ThroughputPredictionModel,
        )
        assert isinstance(
            registry.performance["backpressure-evaluation"],
            BackpressureEvaluationModel,
        )

    def test_per_instance_prophet_variant(self):
        config = load_config(
            {"traffic_models": ["prophet-per-instance"]}
        )
        registry = build_registry(config, TopologyTracker(), MetricsStore())
        assert registry.traffic["prophet-per-instance"].per_instance

    def test_options_are_forwarded(self):
        config = load_config(
            {
                "traffic_models": ["stats-summary"],
                "model_options": {"stats-summary": {"statistic": "p90"}},
            }
        )
        registry = build_registry(config, TopologyTracker(), MetricsStore())
        assert registry.traffic["stats-summary"].statistic == "p90"

    def test_model_selection(self):
        config = load_config({})
        registry = build_registry(config, TopologyTracker(), MetricsStore())
        assert len(registry.traffic_model(None)) == 2
        assert len(registry.traffic_model("prophet")) == 1
        with pytest.raises(ConfigError, match="not enabled"):
            registry.traffic_model("arima")
        with pytest.raises(ConfigError, match="not enabled"):
            registry.performance_model("nonsense")


class TestServingConfig:
    def test_defaults(self):
        config = load_config({})
        serving = config.serving
        assert serving.enabled is True
        assert serving.cache_mb == 64.0
        assert serving.cache_bytes == 64 * 1024 * 1024
        assert serving.ttl_seconds == 300.0
        assert serving.max_concurrent == 4
        assert serving.max_queue == 32
        assert serving.precompute_top_k == 8
        assert serving.job_result_ttl_seconds == 60.0

    def test_overrides(self):
        config = load_config(
            {
                "serving": {
                    "enabled": False,
                    "cache_mb": 8,
                    "ttl_seconds": None,
                    "max_concurrent": 2,
                    "max_queue": 4,
                    "precompute_top_k": 3,
                    "job_result_ttl_seconds": 10,
                }
            }
        )
        serving = config.serving
        assert serving.enabled is False
        assert serving.cache_mb == 8.0
        assert serving.cache_bytes == 8 * 1024 * 1024
        assert serving.ttl_seconds is None
        assert serving.max_concurrent == 2
        assert serving.max_queue == 4
        assert serving.precompute_top_k == 3
        assert serving.job_result_ttl_seconds == 10.0

    def test_section_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            load_config({"serving": ["cache_mb"]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown serving keys"):
            load_config({"serving": {"cache_gb": 1}})

    def test_enabled_must_be_boolean(self):
        with pytest.raises(ConfigError, match="enabled"):
            load_config({"serving": {"enabled": "yes"}})

    @pytest.mark.parametrize(
        "key", ["cache_mb", "ttl_seconds", "job_result_ttl_seconds"]
    )
    def test_numbers_must_be_positive(self, key):
        with pytest.raises(ConfigError, match=key):
            load_config({"serving": {key: 0}})
        with pytest.raises(ConfigError, match=key):
            load_config({"serving": {key: "lots"}})

    @pytest.mark.parametrize(
        "key", ["max_concurrent", "max_queue", "precompute_top_k"]
    )
    def test_counts_must_be_positive_integers(self, key):
        with pytest.raises(ConfigError, match=key):
            load_config({"serving": {key: 0}})
        with pytest.raises(ConfigError, match=key):
            load_config({"serving": {key: 2.5}})


class TestClusterConfig:
    def test_defaults(self):
        cluster = load_config({}).cluster
        assert cluster.shards == 1
        assert cluster.virtual_nodes == 64
        assert cluster.replicate is False
        assert cluster.ship_interval_seconds == 0.5
        assert cluster.restart_backoff_seconds == 0.2
        assert cluster.proxy_timeout_seconds == 30.0

    def test_overrides(self):
        cluster = load_config(
            {
                "cluster": {
                    "shards": 4,
                    "virtual_nodes": 128,
                    "replicate": True,
                    "ship_interval_seconds": 0.1,
                    "restart_backoff_seconds": 1,
                    "proxy_timeout_seconds": 5,
                },
                # Followers replay shipped segments into a data dir.
                "durability": {"data_dir": "/var/lib/caladrius"},
            }
        ).cluster
        assert cluster.shards == 4
        assert cluster.virtual_nodes == 128
        assert cluster.replicate is True
        assert cluster.ship_interval_seconds == 0.1
        assert cluster.restart_backoff_seconds == 1.0
        assert cluster.proxy_timeout_seconds == 5.0

    def test_section_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            load_config({"cluster": [4]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown cluster keys"):
            load_config({"cluster": {"shard_count": 4}})

    @pytest.mark.parametrize(
        "document, rule",
        [
            ({"cluster": {"shards": 4, "replicate": True}}, "data_dir"),
            (
                {"cluster": {"replicate": True},
                 "durability": {"data_dir": "/d"}},
                "shards > 1",
            ),
            ({"cluster": {"shards": 4, "sync_ship": True}}, "sync_ship needs"),
        ],
        ids=["replicate-without-data-dir", "replicate-one-shard",
             "sync-ship-without-replicate"],
    )
    def test_settings_that_disagree_are_refused_from_a_mapping(
        self, document, rule
    ):
        """The rules a ``serve`` process applies hold for every loaded
        document, not only for one laid over by command-line flags."""
        with pytest.raises(ConfigError, match=rule):
            load_config(document)

    def test_settings_that_disagree_are_refused_from_a_file(self, tmp_path):
        path = tmp_path / "caladrius.yaml"
        path.write_text("cluster: {shards: 2, replicate: true}\n")
        with pytest.raises(ConfigError, match="durability.data_dir"):
            load_config(path)

    def test_replicate_must_be_boolean(self):
        with pytest.raises(ConfigError, match="replicate"):
            load_config({"cluster": {"replicate": "yes"}})

    @pytest.mark.parametrize("key", ["shards", "virtual_nodes"])
    def test_counts_must_be_positive_integers(self, key):
        with pytest.raises(ConfigError, match=key):
            load_config({"cluster": {key: 0}})
        with pytest.raises(ConfigError, match=key):
            load_config({"cluster": {key: 2.5}})

    @pytest.mark.parametrize(
        "key",
        [
            "ship_interval_seconds",
            "restart_backoff_seconds",
            "proxy_timeout_seconds",
        ],
    )
    def test_numbers_must_be_positive(self, key):
        with pytest.raises(ConfigError, match=key):
            load_config({"cluster": {key: 0}})
        with pytest.raises(ConfigError, match=key):
            load_config({"cluster": {key: "fast"}})
