"""YAML configuration loading and validation.

Every setting is declared once, as a dataclass field whose metadata
carries its rule (:func:`setting`).  One walk over those fields
(:func:`_parse`) validates the top level and every section, so a YAML
key, a ``serve``/``follow`` flag laid over the document
(:func:`process_config`) and a cluster child inheriting that flag are
all judged by the same code, and an error always names ``section.key``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any

from repro.errors import ConfigError

__all__ = [
    "ApiConfig",
    "CaladriusConfig",
    "ClusterConfig",
    "DurabilityConfig",
    "IngestConfig",
    "ServingConfig",
    "load_config",
    "process_config",
]

_KNOWN_TRAFFIC_MODELS = ("prophet", "prophet-per-instance", "stats-summary")
_KNOWN_PERFORMANCE_MODELS = (
    "throughput-prediction",
    "backpressure-evaluation",
)


@dataclass(frozen=True)
class Rule:
    """What one setting accepts.

    ``kind`` is its type: ``bool``, ``int``, ``float`` (an integer is
    taken; the value must be finite), ``str`` (non-empty), ``tuple`` (a
    non-empty list of names from ``choices``) or ``dict`` (model name →
    mapping of options).  ``gt``/``ge``/``le`` bound a number,
    ``choices`` restricts a string, and ``nullable`` admits null.
    """

    kind: type
    gt: float | None = None
    ge: float | None = None
    le: float | None = None
    choices: tuple[str, ...] = ()
    nullable: bool = False


def setting(default: Any, kind: type, **rule: Any) -> Any:
    """A configuration field and its :class:`Rule`."""
    metadata = {"rule": Rule(kind, **rule)}
    if isinstance(default, dict):
        return field(default_factory=dict, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class ApiConfig:
    """The listener's address (``port: 0`` picks an ephemeral port)."""

    host: str = setting("127.0.0.1", str)
    port: int = setting(8080, int, ge=0, le=65535)


@dataclass(frozen=True)
class ServingConfig:
    """Serving-layer settings (cache, admission control, precompute).

    ``enabled`` switches the whole layer off (every request recomputes,
    the pre-serving behaviour).  ``cache_mb`` bounds the result cache in
    megabytes and ``ttl_seconds`` the lifetime of an entry (null: no
    expiry); ``max_concurrent``/``max_queue`` bound the admission gate;
    ``precompute_top_k`` is how many popular queries are re-warmed per
    invalidation; ``job_result_ttl_seconds`` is how long a finished
    async job's result stays pollable.
    """

    enabled: bool = setting(True, bool)
    cache_mb: float = setting(64.0, float, gt=0)
    ttl_seconds: float | None = setting(300.0, float, gt=0, nullable=True)
    max_concurrent: int = setting(4, int, ge=1)
    max_queue: int = setting(32, int, ge=1)
    precompute_top_k: int = setting(8, int, ge=1)
    job_result_ttl_seconds: float = setting(60.0, float, gt=0)

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
    long a SIGTERM-initiated drain waits for in-flight requests.
    """

    data_dir: str | None = setting(None, str, nullable=True)
    fsync: str = setting(
        "interval", str, choices=("always", "interval", "never")
    )
    fsync_interval_seconds: float = setting(0.05, float, gt=0)
    segment_max_bytes: int = setting(4 * 1024 * 1024, int, ge=1024)
    drain_timeout_seconds: float = setting(10.0, float, gt=0)


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

    max_body_bytes: int = setting(8 * 1024 * 1024, int, ge=1024)
    commit_max_frames: int = setting(4096, int, ge=1)


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

    shards: int = setting(1, int, ge=1)
    virtual_nodes: int = setting(64, int, ge=1)
    replicate: bool = setting(False, bool)
    ship_interval_seconds: float = setting(0.5, float, gt=0)
    restart_backoff_seconds: float = setting(0.2, float, gt=0)
    proxy_timeout_seconds: float = setting(30.0, float, gt=0)
    sync_ship: bool = setting(False, bool)
    unresponsive_timeout_seconds: float = setting(10.0, float, ge=0)


@dataclass(frozen=True)
class CaladriusConfig:
    """Validated service configuration.

    ``traffic_models`` and ``performance_models`` list the enabled model
    names in the order the API tier runs them ("by default, the endpoint
    will run all model implementations defined in the configuration").
    ``model_options`` carries per-model keyword options for enabled
    models; ``api`` the listener settings.
    """

    traffic_models: tuple[str, ...] = setting(
        ("prophet", "stats-summary"), tuple, choices=_KNOWN_TRAFFIC_MODELS
    )
    performance_models: tuple[str, ...] = setting(
        _KNOWN_PERFORMANCE_MODELS, tuple, choices=_KNOWN_PERFORMANCE_MODELS
    )
    model_options: dict[str, dict[str, Any]] = setting({}, dict)
    log_level: str = setting(
        "INFO", str, choices=("DEBUG", "INFO", "WARNING", "ERROR")
    )
    degraded_threshold: float = setting(0.25, float, ge=0, le=1)
    api: ApiConfig = field(default_factory=ApiConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)

    @property
    def api_host(self) -> str:
        """The listen address (``api.host``)."""
        return self.api.host

    @property
    def api_port(self) -> int:
        """The listen port (``api.port``)."""
        return self.api.port

    def options_for(self, model: str) -> dict[str, Any]:
        """Keyword options configured for one model (may be empty)."""
        return dict(self.model_options.get(model, {}))


def load_config(source: str | Path | Mapping[str, Any]) -> CaladriusConfig:
    """Load configuration from a YAML file path or an in-memory mapping.

    The expected document shape (the ``caladrius:`` wrapper is
    optional; every key may be left out)::

        caladrius:
          traffic_models: [prophet, stats-summary]
          performance_models: [throughput-prediction]
          model_options:
            prophet: {n_changepoints: 25}
            stats-summary: {statistic: mean, window: 120}
          api: {host: 127.0.0.1, port: 8080}
          log_level: INFO
          degraded_threshold: 0.25
          serving: {enabled: true, cache_mb: 64, ttl_seconds: 300,
                    max_concurrent: 4, max_queue: 32, precompute_top_k: 8,
                    job_result_ttl_seconds: 60}
          durability: {data_dir: /var/lib/caladrius, fsync: interval,
                       fsync_interval_seconds: 0.05,
                       segment_max_bytes: 4194304, drain_timeout_seconds: 10}
          cluster: {shards: 4, virtual_nodes: 64, replicate: true,
                    ship_interval_seconds: 0.5, restart_backoff_seconds: 0.2,
                    proxy_timeout_seconds: 30, sync_ship: false,
                    unresponsive_timeout_seconds: 10}
          ingest: {max_body_bytes: 8388608, commit_max_frames: 4096}

    An unknown key at any level, a value its rule refuses and options
    for a model that is not enabled raise
    :class:`~repro.errors.ConfigError` naming ``section.key``; so do
    settings that disagree: ``cluster.replicate`` needs
    ``durability.data_dir`` and ``cluster.shards`` > 1, and
    ``cluster.sync_ship`` needs ``cluster.replicate``.
    """
    return _load(source, {})


def process_config(
    path: str | Path | None, overlay: Mapping[str, Any]
) -> CaladriusConfig:
    """The configuration one ``serve`` or ``follow`` process runs.

    ``overlay`` maps dotted keys (``"serving.cache_mb"``) to the values
    the command line gave; they replace the YAML file's (or, without
    ``path``, the defaults') before anything is validated, by the same
    rules as :func:`load_config`, and a string given for a number is
    read as one.
    """
    return _load(path or {}, overlay)


def _load(
    source: str | Path | Mapping[str, Any], overlay: Mapping[str, Any]
) -> CaladriusConfig:
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
    if isinstance(document, dict) and list(document) == ["caladrius"]:
        document = document["caladrius"]
    config = _parse(CaladriusConfig, document, "", overlay)
    enabled = config.traffic_models + config.performance_models
    for model in config.model_options:
        if model not in enabled:
            raise ConfigError(
                f"model_options.{model}: {model!r} is not an enabled model"
            )
    cluster = config.cluster
    if cluster.replicate and (
        cluster.shards < 2 or not config.durability.data_dir
    ):
        raise ConfigError(
            "cluster.replicate needs cluster.shards > 1 and "
            "durability.data_dir (followers replay shipped WAL segments)"
        )
    if cluster.sync_ship and not cluster.replicate:
        raise ConfigError("cluster.sync_ship needs cluster.replicate")
    return config


def _parse(cls: type, document: Any, prefix: str, overlay: Mapping) -> Any:
    """``cls`` built from one mapping of the document, ``prefix`` (e.g.
    ``"serving."``) naming it, each field checked against its rule."""
    section = prefix[:-1] or "caladrius"
    if not isinstance(document, dict):
        raise ConfigError(f"'{section}' section must be a mapping")
    known = [f.name for f in fields(cls)]
    unknown = sorted(map(str, set(document) - set(known)))
    if unknown:
        raise ConfigError(f"unknown {section} keys {unknown}; known: {known}")
    values = {}
    for f in fields(cls):
        name = prefix + f.name
        if is_dataclass(f.default_factory):
            values[f.name] = _parse(
                f.default_factory, document.get(f.name, {}), name + ".", overlay
            )
        elif name in overlay:
            rule, value = f.metadata["rule"], overlay[name]
            if isinstance(value, str) and rule.kind in (int, float):
                with suppress(ValueError):
                    value = rule.kind(value)
            values[f.name] = _check(rule, value, name)
        elif f.name in document:
            values[f.name] = _check(f.metadata["rule"], document[f.name], name)
    return cls(**values)


def _check(rule: Rule, value: Any, name: str) -> Any:
    """``value`` as the setting ``name`` holds it, or a ConfigError."""
    if value is None and rule.nullable:
        return None
    if rule.kind is tuple:
        if not isinstance(value, list) or not all(
            isinstance(item, str) for item in value
        ):
            raise ConfigError(f"{name} must be a list of strings")
        unknown = [item for item in value if item not in rule.choices]
        if unknown:
            raise ConfigError(
                f"unknown {name} entries {unknown}; known: {list(rule.choices)}"
            )
        if not value:
            raise ConfigError(f"{name} must enable at least one model")
        return tuple(value)
    if rule.kind is dict:
        if not isinstance(value, dict) or not all(
            isinstance(options, dict) for options in value.values()
        ):
            raise ConfigError(f"{name} must map model names to mappings")
        return {model: dict(options) for model, options in value.items()}
    if rule.kind is float and type(value) is int:
        value = float(value)
    if not isinstance(value, rule.kind) or isinstance(value, bool) is not (
        rule.kind is bool
    ):
        raise ConfigError(
            f"{name} must be of type {rule.kind.__name__}, got {value!r}"
        )
    if rule.kind is float and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if rule.kind is str and not value:
        raise ConfigError(f"{name} must be a non-empty string")
    if rule.choices and value not in rule.choices:
        raise ConfigError(
            f"{name} must be one of {'/'.join(rule.choices)}, got {value!r}"
        )
    for word, bound, holds in (
        (">", rule.gt, operator.gt),
        (">=", rule.ge, operator.ge),
        ("<=", rule.le, operator.le),
    ):
        if bound is not None and not holds(value, bound):
            raise ConfigError(f"{name} must be {word} {bound}, got {value!r}")
    return value
