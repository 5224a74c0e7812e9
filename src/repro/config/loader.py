"""YAML configuration loading and validation."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigError

__all__ = [
    "CaladriusConfig",
    "ClusterConfig",
    "DurabilityConfig",
    "IngestConfig",
    "ServingConfig",
    "load_config",
]

_KNOWN_TRAFFIC_MODELS = (
    "prophet",
    "prophet-per-instance",
    "stats-summary",
    "holt-winters",
)
_KNOWN_PERFORMANCE_MODELS = (
    "throughput-prediction",
    "backpressure-evaluation",
)


@dataclass(frozen=True)
class ServingConfig:
    """Serving-layer settings (cache, admission control, precompute).

    ``enabled`` switches the whole layer off (every request recomputes,
    the pre-serving behaviour).  ``cache_mb`` bounds the result cache in
    megabytes and ``ttl_seconds`` the lifetime of an entry;
    ``max_concurrent``/``max_queue`` bound the admission gate;
    ``precompute_top_k`` is how many popular queries are re-warmed per
    invalidation; ``job_result_ttl_seconds`` is how long a finished
    async job's result stays pollable.
    """

    enabled: bool = True
    cache_mb: float = 64.0
    ttl_seconds: float | None = 300.0
    max_concurrent: int = 4
    max_queue: int = 32
    precompute_top_k: int = 8
    job_result_ttl_seconds: float = 60.0

    @property
    def cache_bytes(self) -> int:
        """The cache budget in bytes."""
        return int(self.cache_mb * 1024 * 1024)


@dataclass(frozen=True)
class DurabilityConfig:
    """Durable-state and lifecycle settings.

    ``data_dir`` switches durability on: metrics writes are journaled
    to a write-ahead log there and recovered on restart (``None`` keeps
    the memory-only behaviour).  ``fsync`` is one of ``always`` /
    ``interval`` / ``never``; ``interval`` syncs at most once per
    ``fsync_interval_seconds``.  ``drain_timeout_seconds`` bounds how
    long a SIGTERM-initiated drain waits for in-flight requests.  The
    ``breaker_*`` knobs configure the circuit breaker around model
    evaluation (``breaker_enabled: false`` disables it).
    """

    data_dir: str | None = None
    fsync: str = "interval"
    fsync_interval_seconds: float = 0.05
    segment_max_bytes: int = 4 * 1024 * 1024
    drain_timeout_seconds: float = 10.0
    breaker_enabled: bool = True
    breaker_failure_threshold: float = 0.5
    breaker_window: int = 20
    breaker_min_calls: int = 5
    breaker_open_seconds: float = 5.0


@dataclass(frozen=True)
class IngestConfig:
    """Ingestion-tier settings (the API listener's write path).

    ``max_body_bytes`` caps how large a request body any server will
    read — a request declaring more is refused with a structured 413
    before a byte of the body is buffered, so one bad client cannot
    OOM a shard worker.  ``commit_max_frames`` is the largest number of
    frames ``POST /metrics/write_batch`` commits (and fsyncs) at once — a
    client batch at or under it costs exactly one fsync; a larger one is
    answered as streamed per-commit-group acks.
    """

    max_body_bytes: int = 8 * 1024 * 1024
    commit_max_frames: int = 4096


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster-tier settings (``caladrius serve --shards N``).

    ``shards`` is the fleet size (1 = single process, no cluster tier).
    ``virtual_nodes`` controls consistent-hash smoothness; it must match
    between router and shard-aware clients, which it does because both
    read it from ``GET /cluster/ring``.  ``replicate`` pairs every shard
    with a follower replica fed by WAL-segment shipping every
    ``ship_interval_seconds``.  ``restart_backoff_seconds`` is the pause
    before a crashed shard is respawned; ``proxy_timeout_seconds``
    bounds one router→shard proxy hop.  ``sync_ship`` makes each
    acknowledged write trigger a shipping pass before the ack leaves
    (zero replica lag for acked writes, at a latency cost).
    ``unresponsive_timeout_seconds`` is how long a ready worker may
    fail its liveness probe before the manager kills and recovers it
    (0 disables the probe).
    """

    shards: int = 1
    virtual_nodes: int = 64
    replicate: bool = False
    ship_interval_seconds: float = 0.5
    restart_backoff_seconds: float = 0.2
    proxy_timeout_seconds: float = 30.0
    sync_ship: bool = False
    unresponsive_timeout_seconds: float = 10.0


@dataclass(frozen=True)
class CaladriusConfig:
    """Validated service configuration.

    ``traffic_models`` and ``performance_models`` list the enabled model
    names in the order the API tier runs them ("by default, the endpoint
    will run all model implementations defined in the configuration").
    ``model_options`` carries per-model keyword options; ``api`` the
    listener settings.
    """

    traffic_models: tuple[str, ...] = ("prophet", "stats-summary")
    performance_models: tuple[str, ...] = (
        "throughput-prediction",
        "backpressure-evaluation",
    )
    model_options: dict[str, dict[str, Any]] = field(default_factory=dict)
    api_host: str = "127.0.0.1"
    api_port: int = 8080
    log_level: str = "INFO"
    degraded_threshold: float = 0.25
    serving: ServingConfig = field(default_factory=ServingConfig)
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)

    def options_for(self, model: str) -> dict[str, Any]:
        """Keyword options configured for one model (may be empty)."""
        return dict(self.model_options.get(model, {}))


def load_config(source: str | Path | Mapping[str, Any]) -> CaladriusConfig:
    """Load configuration from a YAML file path or an in-memory mapping.

    The expected document shape::

        caladrius:
          traffic_models: [prophet, stats-summary]
          performance_models: [throughput-prediction]
          model_options:
            prophet: {n_changepoints: 25}
            stats-summary: {statistic: mean, window: 120}
          api: {host: 127.0.0.1, port: 8080}
          log_level: INFO
          degraded_threshold: 0.25
          serving:
            enabled: true
            cache_mb: 64
            ttl_seconds: 300
            max_concurrent: 4
            max_queue: 32
            precompute_top_k: 8
            job_result_ttl_seconds: 60
          durability:
            data_dir: /var/lib/caladrius
            fsync: interval
            fsync_interval_seconds: 0.05
            segment_max_bytes: 4194304
            drain_timeout_seconds: 10
            breaker_enabled: true
            breaker_failure_threshold: 0.5
            breaker_window: 20
            breaker_min_calls: 5
            breaker_open_seconds: 5
          cluster:
            shards: 4
            virtual_nodes: 64
            replicate: true
            ship_interval_seconds: 0.5
            restart_backoff_seconds: 0.2
            proxy_timeout_seconds: 30
            sync_ship: false
            unresponsive_timeout_seconds: 10
          ingest:
            max_body_bytes: 8388608
            commit_max_frames: 4096

    Unknown model names and malformed sections raise
    :class:`~repro.errors.ConfigError` with a precise message.
    """
    if isinstance(source, Mapping):
        document: Any = dict(source)
    else:
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        import yaml  # only a file needs the parser

        with open(path, encoding="utf8") as handle:
            document = yaml.safe_load(handle)
    if document is None:
        document = {}
    if not isinstance(document, dict):
        raise ConfigError("config root must be a mapping")
    section = document.get("caladrius", document)
    if not isinstance(section, dict):
        raise ConfigError("'caladrius' section must be a mapping")

    traffic = _name_list(
        section.get("traffic_models", list(CaladriusConfig.traffic_models)),
        "traffic_models",
        _KNOWN_TRAFFIC_MODELS,
    )
    performance = _name_list(
        section.get(
            "performance_models", list(CaladriusConfig.performance_models)
        ),
        "performance_models",
        _KNOWN_PERFORMANCE_MODELS,
    )
    options = section.get("model_options", {})
    if not isinstance(options, dict) or not all(
        isinstance(v, dict) for v in options.values()
    ):
        raise ConfigError("model_options must map model names to mappings")
    api = section.get("api", {})
    if not isinstance(api, dict):
        raise ConfigError("'api' section must be a mapping")
    host = api.get("host", "127.0.0.1")
    port = api.get("port", 8080)
    if not isinstance(host, str) or not host:
        raise ConfigError("api.host must be a non-empty string")
    if not isinstance(port, int) or not 0 <= port < 65536:
        raise ConfigError(
            f"api.port must be a port number (0 = ephemeral), got {port!r}"
        )
    log_level = section.get("log_level", "INFO")
    if log_level not in ("DEBUG", "INFO", "WARNING", "ERROR"):
        raise ConfigError(f"unsupported log_level {log_level!r}")
    threshold = section.get("degraded_threshold", 0.25)
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise ConfigError("degraded_threshold must be a number")
    if not 0.0 <= float(threshold) <= 1.0:
        raise ConfigError(
            f"degraded_threshold must be in [0, 1], got {threshold!r}"
        )
    serving = _parse_serving(section.get("serving", {}))
    durability = _parse_durability(section.get("durability", {}))
    cluster = _parse_cluster(section.get("cluster", {}))
    ingest = _parse_ingest(section.get("ingest", {}))
    return CaladriusConfig(
        traffic_models=traffic,
        performance_models=performance,
        model_options={k: dict(v) for k, v in options.items()},
        api_host=host,
        api_port=port,
        log_level=log_level,
        degraded_threshold=float(threshold),
        serving=serving,
        durability=durability,
        cluster=cluster,
        ingest=ingest,
    )


def _parse_serving(section: Any) -> ServingConfig:
    if not isinstance(section, dict):
        raise ConfigError("'serving' section must be a mapping")
    defaults = ServingConfig()
    known = {
        "enabled", "cache_mb", "ttl_seconds", "max_concurrent",
        "max_queue", "precompute_top_k", "job_result_ttl_seconds",
    }
    unknown = sorted(set(section) - known)
    if unknown:
        raise ConfigError(
            f"unknown serving keys {unknown}; known: {sorted(known)}"
        )
    enabled = section.get("enabled", defaults.enabled)
    if not isinstance(enabled, bool):
        raise ConfigError("serving.enabled must be a boolean")
    cache_mb = _positive_number(
        section.get("cache_mb", defaults.cache_mb), "serving.cache_mb"
    )
    ttl = section.get("ttl_seconds", defaults.ttl_seconds)
    if ttl is not None:
        ttl = _positive_number(ttl, "serving.ttl_seconds")
    max_concurrent = _positive_int(
        section.get("max_concurrent", defaults.max_concurrent),
        "serving.max_concurrent",
    )
    max_queue = _positive_int(
        section.get("max_queue", defaults.max_queue), "serving.max_queue"
    )
    top_k = _positive_int(
        section.get("precompute_top_k", defaults.precompute_top_k),
        "serving.precompute_top_k",
    )
    job_ttl = _positive_number(
        section.get(
            "job_result_ttl_seconds", defaults.job_result_ttl_seconds
        ),
        "serving.job_result_ttl_seconds",
    )
    return ServingConfig(
        enabled=enabled,
        cache_mb=float(cache_mb),
        ttl_seconds=float(ttl) if ttl is not None else None,
        max_concurrent=max_concurrent,
        max_queue=max_queue,
        precompute_top_k=top_k,
        job_result_ttl_seconds=float(job_ttl),
    )


def _parse_durability(section: Any) -> DurabilityConfig:
    if not isinstance(section, dict):
        raise ConfigError("'durability' section must be a mapping")
    defaults = DurabilityConfig()
    known = {
        "data_dir", "fsync", "fsync_interval_seconds", "segment_max_bytes",
        "drain_timeout_seconds", "breaker_enabled",
        "breaker_failure_threshold", "breaker_window", "breaker_min_calls",
        "breaker_open_seconds",
    }
    unknown = sorted(set(section) - known)
    if unknown:
        raise ConfigError(
            f"unknown durability keys {unknown}; known: {sorted(known)}"
        )
    data_dir = section.get("data_dir", defaults.data_dir)
    if data_dir is not None and (
        not isinstance(data_dir, str) or not data_dir
    ):
        raise ConfigError(
            "durability.data_dir must be a non-empty string or null"
        )
    fsync = section.get("fsync", defaults.fsync)
    if fsync not in ("always", "interval", "never"):
        raise ConfigError(
            f"durability.fsync must be always/interval/never, got {fsync!r}"
        )
    interval = _positive_number(
        section.get(
            "fsync_interval_seconds", defaults.fsync_interval_seconds
        ),
        "durability.fsync_interval_seconds",
    )
    segment = _positive_int(
        section.get("segment_max_bytes", defaults.segment_max_bytes),
        "durability.segment_max_bytes",
    )
    if segment < 1024:
        raise ConfigError("durability.segment_max_bytes must be >= 1024")
    drain = _positive_number(
        section.get(
            "drain_timeout_seconds", defaults.drain_timeout_seconds
        ),
        "durability.drain_timeout_seconds",
    )
    breaker_enabled = section.get("breaker_enabled", defaults.breaker_enabled)
    if not isinstance(breaker_enabled, bool):
        raise ConfigError("durability.breaker_enabled must be a boolean")
    threshold = section.get(
        "breaker_failure_threshold", defaults.breaker_failure_threshold
    )
    if isinstance(threshold, bool) or not isinstance(
        threshold, (int, float)
    ) or not 0.0 < float(threshold) <= 1.0:
        raise ConfigError(
            "durability.breaker_failure_threshold must be in (0, 1], "
            f"got {threshold!r}"
        )
    window = _positive_int(
        section.get("breaker_window", defaults.breaker_window),
        "durability.breaker_window",
    )
    min_calls = _positive_int(
        section.get("breaker_min_calls", defaults.breaker_min_calls),
        "durability.breaker_min_calls",
    )
    open_seconds = _positive_number(
        section.get("breaker_open_seconds", defaults.breaker_open_seconds),
        "durability.breaker_open_seconds",
    )
    return DurabilityConfig(
        data_dir=data_dir,
        fsync=fsync,
        fsync_interval_seconds=float(interval),
        segment_max_bytes=segment,
        drain_timeout_seconds=float(drain),
        breaker_enabled=breaker_enabled,
        breaker_failure_threshold=float(threshold),
        breaker_window=window,
        breaker_min_calls=min_calls,
        breaker_open_seconds=float(open_seconds),
    )


def _parse_cluster(section: Any) -> ClusterConfig:
    if not isinstance(section, dict):
        raise ConfigError("'cluster' section must be a mapping")
    defaults = ClusterConfig()
    known = {
        "shards", "virtual_nodes", "replicate", "ship_interval_seconds",
        "restart_backoff_seconds", "proxy_timeout_seconds", "sync_ship",
        "unresponsive_timeout_seconds",
    }
    unknown = sorted(set(section) - known)
    if unknown:
        raise ConfigError(
            f"unknown cluster keys {unknown}; known: {sorted(known)}"
        )
    shards = _positive_int(
        section.get("shards", defaults.shards), "cluster.shards"
    )
    virtual_nodes = _positive_int(
        section.get("virtual_nodes", defaults.virtual_nodes),
        "cluster.virtual_nodes",
    )
    replicate = section.get("replicate", defaults.replicate)
    if not isinstance(replicate, bool):
        raise ConfigError("cluster.replicate must be a boolean")
    ship_interval = _positive_number(
        section.get("ship_interval_seconds", defaults.ship_interval_seconds),
        "cluster.ship_interval_seconds",
    )
    backoff = _positive_number(
        section.get(
            "restart_backoff_seconds", defaults.restart_backoff_seconds
        ),
        "cluster.restart_backoff_seconds",
    )
    proxy_timeout = _positive_number(
        section.get(
            "proxy_timeout_seconds", defaults.proxy_timeout_seconds
        ),
        "cluster.proxy_timeout_seconds",
    )
    sync_ship = section.get("sync_ship", defaults.sync_ship)
    if not isinstance(sync_ship, bool):
        raise ConfigError("cluster.sync_ship must be a boolean")
    unresponsive = section.get(
        "unresponsive_timeout_seconds",
        defaults.unresponsive_timeout_seconds,
    )
    if isinstance(unresponsive, bool) or not isinstance(
        unresponsive, (int, float)
    ) or unresponsive < 0:
        raise ConfigError(
            "cluster.unresponsive_timeout_seconds must be a non-negative "
            f"number (0 disables the probe), got {unresponsive!r}"
        )
    return ClusterConfig(
        shards=shards,
        virtual_nodes=virtual_nodes,
        replicate=replicate,
        ship_interval_seconds=float(ship_interval),
        restart_backoff_seconds=float(backoff),
        proxy_timeout_seconds=float(proxy_timeout),
        sync_ship=sync_ship,
        unresponsive_timeout_seconds=float(unresponsive),
    )


def _parse_ingest(section: Any) -> IngestConfig:
    if not isinstance(section, dict):
        raise ConfigError("'ingest' section must be a mapping")
    defaults = IngestConfig()
    known = {"max_body_bytes", "commit_max_frames"}
    unknown = sorted(set(section) - known)
    if unknown:
        raise ConfigError(
            f"unknown ingest keys {unknown}; known: {sorted(known)}"
        )
    max_body = _positive_int(
        section.get("max_body_bytes", defaults.max_body_bytes),
        "ingest.max_body_bytes",
    )
    if max_body < 1024:
        raise ConfigError("ingest.max_body_bytes must be >= 1024")
    commit_frames = _positive_int(
        section.get("commit_max_frames", defaults.commit_max_frames),
        "ingest.commit_max_frames",
    )
    return IngestConfig(
        max_body_bytes=max_body,
        commit_max_frames=commit_frames,
    )


def _positive_number(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return float(value)


def _positive_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value!r}")
    return value


def _name_list(
    value: Any, field_name: str, known: tuple[str, ...]
) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise ConfigError(f"{field_name} must be a list of strings")
    unknown = [name for name in value if name not in known]
    if unknown:
        raise ConfigError(
            f"unknown {field_name} entries {unknown}; known: {list(known)}"
        )
    if not value:
        raise ConfigError(f"{field_name} must enable at least one model")
    return tuple(value)
