"""Request routing and model dispatch for the Caladrius API tier.

:class:`CaladriusApp` is transport-agnostic: it maps
``(method, path, query, body)`` to a JSON-able response and a status
code.  :mod:`repro.api.server` adapts it to HTTP; tests can call
:meth:`CaladriusApp.handle` directly without sockets.

Modelling calls "may incur a wait ... therefore, it is prudent to let
the API be asynchronous" (paper Section III-A): POSTing with
``async=1`` returns a request id immediately, the modelling runs on a
worker pool, and ``GET /model/result/{id}`` retrieves the outcome.
By default an endpoint runs *all* configured model implementations and
concatenates the results into one JSON response, as the paper
describes; ``?model=`` narrows to one.

Modelling traffic flows through :class:`~repro.serving.ServingLayer`
(unless disabled in configuration): identical requests over unchanged
inputs are answered from a content-addressed cache, concurrent identical
requests coalesce into one computation, and overload is shed with a
structured 429 + ``Retry-After``.

The app owns one :class:`~repro.telemetry.Telemetry` registry and hands
it to everything it builds; ``GET /telemetry`` is its snapshot, and
``GET /serving/stats`` and ``/healthz`` read their counters from it
(:func:`stats_view`).
"""

from __future__ import annotations

import json
import sys
import threading
import uuid
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.clock import SYSTEM_CLOCK, Clock
from repro.config.loader import CaladriusConfig
from repro.config.registry import ModelRegistry, build_registry
from repro.core.calibration_cache import CalibrationCache
from repro.durability.breaker import CircuitBreaker, breaker_view
from repro.durability.deadline import (
    DEADLINE_HEADER,
    Deadline,
    current_deadline,
    deadline_scope,
    parse_deadline_header,
)
from repro.durability.lifecycle import LifecycleController
from repro.api.ingest import FRAMES_CONTENT_TYPE, split_frames
from repro.errors import ApiError, ReproError, TopologyError
from repro.heron.tracker import TopologyTracker, TrackedTopology
from repro.serving import (
    INTERACTIVE,
    PRECOMPUTE,
    RequestDescriptor,
    ServingLayer,
)
from repro.serving.layer import serving_view
from repro.sweep import PlanSweepEngine
from repro.telemetry import Snapshot, Telemetry, readings
from repro.timeseries.store import MetricsStore, write_fields

__all__ = ["CaladriusApp", "stats_view"]

T = TypeVar("T")

#: A value of ``blocking``: the caller may wait, and takes a synchronous
#: modelling answer as the response bytes the result cache stored.
_ENCODED = "encoded"

#: ``/model/<kind>/heron/<name>``: the method each kind takes, and the
#: 405's words for another.
_MODEL_VERBS = {
    "traffic": ("GET", "traffic modelling uses GET"),
    "topology": ("POST", "performance modelling uses POST"),
    "plan_sweep": ("POST", "plan sweeps use POST"),
}

#: What a modelling handler makes of a valid request: the descriptor that
#: keys its answer, the computation behind it, and its priority.
_Plan = tuple[RequestDescriptor, Callable[[], dict[str, Any]], int]


@dataclass
class _Job:
    """One async modelling job: its future plus completion bookkeeping."""

    future: Future | None = None
    done_at: float | None = None


class CaladriusApp:
    """The Caladrius service core: routing plus async job management.

    Parameters
    ----------
    config:
        Validated service configuration (enabled models, serving-layer
        options).
    tracker:
        Topology metadata source.
    store:
        Metrics database.
    max_workers:
        Size of the asynchronous modelling pool.
    clock:
        The one clock of the app's time windows: request deadlines, slot
        waits, cache and async-job lifetimes, breaker cool-down, drain age.
    telemetry:
        The app's registry (``GET /telemetry``), handed to every
        component it builds; a private one on ``clock`` by default.  A
        caller that builds the store or a shipper for the app passes
        them the same one.
    """

    # Paths whose request body the transport must hand over as raw
    # bytes instead of parsed JSON (the batched ingest path appends the
    # client's frames to the WAL without re-serialization).
    raw_body_paths = ("/metrics/write_batch",)

    def __init__(
        self,
        config: CaladriusConfig,
        tracker: TopologyTracker,
        store: MetricsStore,
        max_workers: int = 4,
        clock: Clock = SYSTEM_CLOCK,
        shard_id: int | None = None,
        read_only: bool = False,
        epoch: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config
        self.telemetry = telemetry = telemetry or Telemetry(clock)
        self.tracker = tracker
        self.store = store
        # Cluster identity: a worker knows which shard it is (stamped
        # into /healthz and async request ids); a follower replica is
        # read-only and refuses mutations with 403.  The epoch names
        # this worker's writer generation — writes stamped with any
        # *other* epoch are fenced off with a structured 409 so a
        # zombie primary's clients cannot diverge state after failover.
        self.shard_id = shard_id
        self.read_only = read_only
        self.epoch = epoch
        # Set by the CLI when WAL shipping is on; POST /cluster/ship
        # forces a synchronous pass (tests, pre-drain flush).  With
        # sync_ship each acknowledged write also triggers a shipping
        # pass before the ack leaves (availability-first: a shipping
        # failure is logged via counters, never turned into a 5xx).
        self.shipper: Any | None = None
        self.sync_ship = False
        # One calibration (and one metrics-health verdict) per topology
        # and data version, whichever of the models, the sweep engine or
        # the re-warm path asks first.
        self.calibrations = CalibrationCache(tracker, store, telemetry)
        self.registry: ModelRegistry = build_registry(
            config, tracker, store, self.calibrations
        )
        self._clock = clock
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="caladrius-model"
        )
        self._jobs: dict[str, _Job] = {}
        self._jobs_lock = threading.Lock()
        self._job_ttl = config.serving.job_result_ttl_seconds
        self.lifecycle = LifecycleController(clock=clock)
        durability = config.durability
        self._drain_retry_after = max(1, round(durability.drain_timeout_seconds))
        self.breaker: CircuitBreaker | None = None
        if durability.breaker_enabled:
            self.breaker = CircuitBreaker(
                failure_threshold=durability.breaker_failure_threshold,
                window=durability.breaker_window,
                min_calls=durability.breaker_min_calls,
                open_seconds=durability.breaker_open_seconds,
                clock=clock,
                telemetry=telemetry,
            )
        self.sweep_engine = PlanSweepEngine(
            tracker, store, calibrations=self.calibrations, telemetry=telemetry
        )
        self.serving: ServingLayer | None = None
        if config.serving.enabled:
            self.serving = ServingLayer(
                tracker,
                store,
                cache_bytes=config.serving.cache_bytes,
                ttl_seconds=config.serving.ttl_seconds,
                max_concurrent=config.serving.max_concurrent,
                max_queue=config.serving.max_queue,
                precompute_top_k=config.serving.precompute_top_k,
                clock=clock,
                telemetry=telemetry,
            )
            self.serving.set_recompute(self._recompute)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        query: Mapping[str, str] | None = None,
        body: Mapping[str, Any] | bytes | None = None,
        headers: Mapping[str, str] | None = None,
        encoded: bool = False,
    ) -> tuple[int, dict[str, Any] | bytes]:
        """Route one request; returns ``(status, json_payload)``.

        For paths in :attr:`raw_body_paths` the transport passes
        ``body`` as raw bytes; everywhere else it is a parsed JSON
        object.  ``encoded`` is the HTTP listener's: a synchronous
        modelling answer then comes back as the response *bytes* the
        result cache stored, computed or not, to be written as they are.
        """
        return self._handle(
            method, path, query, body, headers, _ENCODED if encoded else True
        )

    def handle_nonblocking(
        self, method: str, path: str, query: Mapping[str, str] | None = None,
        body: Mapping[str, Any] | bytes | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, dict[str, Any] | bytes] | None:
        """:meth:`handle`, for a caller that must not wait.

        Answers what can be decided without I/O, a journal, a scheduler
        slot or a model: the liveness and readiness probes, and a
        synchronous modelling request that is refused (400/404/405, 503
        draining, 504 expired) or whose result is cached — that one as
        the stored response *bytes*.
        Anything else returns ``None`` having changed nothing, and the
        caller runs :meth:`handle` (``encoded``) where it may block.  The
        same code decides either way; they differ in :meth:`_serve`'s one
        call into the serving layer.
        """
        return self._handle(method, path, query, body, headers, False)

    def _handle(
        self, method: str, path: str, query: Mapping[str, str] | None,
        body: Mapping[str, Any] | bytes | None,
        headers: Mapping[str, str] | None, blocking: bool | str,
    ) -> tuple[int, Any] | None:
        query = dict(query or {})
        if isinstance(body, (bytes, bytearray)):
            raw: bytes | None = bytes(body)
            body = {}
        else:
            raw = None
            body = dict(body or {})
        lowered = {k.lower(): v for k, v in dict(headers or {}).items()}
        parts = [p for p in path.split("/") if p]
        try:
            budget = parse_deadline_header(lowered.get(DEADLINE_HEADER.lower()))
            deadline = None if budget is None else Deadline(budget, self._clock)
            with deadline_scope(deadline):
                result = self._route(
                    method.upper(), parts, query, body, lowered, raw, blocking
                )
            return None if result is None else (200, result)
        except ApiError as exc:
            return exc.status, {"error": str(exc), **exc.payload}
        except ReproError as exc:
            return 400, {"error": str(exc)}

    def _route(
        self,
        method: str,
        parts: list[str],
        query: Mapping[str, str],
        body: Mapping[str, Any],
        headers: Mapping[str, str] | None = None,
        raw: bytes | None = None,
        blocking: bool | str = True,
    ) -> dict[str, Any] | bytes | None:
        """The one route table.  ``None`` only comes back to a caller that
        passed ``blocking=False``, ``bytes`` to that one (a cached answer)
        and to one that passed ``_ENCODED``."""
        if method == "GET" and parts == ["healthz"]:
            return self._healthz()
        if method == "GET" and parts == ["readyz"]:
            return self._readyz()
        if (
            len(parts) == 4
            and parts[0] == "model"
            and parts[1] in _MODEL_VERBS
            and parts[2] == "heron"
        ):
            verb, refusal = _MODEL_VERBS[parts[1]]
            if method != verb:
                raise ApiError(refusal, 405)
            self._refuse_if_draining()
            name = parts[3]
            compute = {
                "traffic": lambda: self._traffic(name, query),
                "topology": lambda: self._performance(name, query, body),
                "plan_sweep": lambda: self._plan_sweep(name, query, body),
            }[parts[1]]
            return self._maybe_async(query, compute, blocking)
        if not blocking:
            # Every route below reads the store, journals, ships or
            # touches the job table.
            return None
        if method == "POST" and parts == ["metrics", "write"]:
            self._admit_write(headers or {})
            return self._metrics_write(body)
        if method == "POST" and parts == ["metrics", "write_batch"]:
            self._admit_write(headers or {})
            return self._metrics_write_batch(raw)
        if method == "GET" and parts == ["metrics", "read"]:
            return self._metrics_read(query)
        if method == "GET" and parts == ["topologies"]:
            return {"topologies": self.tracker.names()}
        if method == "GET" and parts == ["cluster", "state_hash"]:
            return self._state_hash()
        if method == "POST" and parts == ["cluster", "ship"]:
            return self._ship_now()
        if method == "GET" and parts == ["serving", "stats"]:
            return stats_view(self.telemetry.snapshot())
        if method == "GET" and parts == ["telemetry"]:
            return self.telemetry.snapshot()
        if method == "GET" and len(parts) == 3 and parts[0] == "topology":
            return self._topology_info(parts[1], parts[2])
        if method == "GET" and len(parts) == 3 and parts[:2] == ["model", "result"]:
            return self._result(parts[2])
        raise ApiError(f"no route for {method} /{'/'.join(parts)}", 404)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _tracked(self, name: str):
        """Topology lookup with not-found semantics (404, not 400)."""
        try:
            return self.tracker.get(name)
        except TopologyError as exc:
            raise ApiError(str(exc), 404) from exc

    def _require_healthy_metrics(self, topology: str) -> None:
        """503 (structured) when the topology's metrics can't be modelled.

        Models calibrated on windows with many missing minutes produce
        confidently wrong answers; the service declines instead, and the
        response carries the health report so callers can decide whether
        to retry later or lower ``degraded_threshold``.
        """
        try:
            health = self.calibrations.health(
                topology, self.config.degraded_threshold
            )
        except TopologyError as exc:
            raise ApiError(str(exc), 404) from exc
        if not health.usable:
            raise ApiError(
                f"metrics for topology {topology!r} are {health.status}: "
                f"{health.detail}",
                503,
                {"metrics_health": health.as_dict()},
            )

    # ------------------------------------------------------------------
    # Lifecycle endpoints
    # ------------------------------------------------------------------
    def _healthz(self) -> dict[str, Any]:
        """Liveness: 200 as long as the process can answer at all."""
        payload: dict[str, Any] = {"status": "ok", **self.lifecycle.status()}
        if self.shard_id is not None:
            payload["shard_id"] = self.shard_id
        if self.read_only:
            payload["read_only"] = True
        if self.epoch is not None:
            payload["epoch"] = self.epoch
        shipper = self.shipper
        if shipper is not None:
            payload["shipping"] = {
                "target": f"{shipper.host}:{shipper.port}",
                "offsets": shipper.offsets,
                "epoch": shipper.epoch,
                "fenced": shipper.fenced,
                **readings(shipper.telemetry.snapshot("shipping."), "shipping.",
                           "passes", "shipped_bytes", "failures", "fencing_409s"),
            }
        if self.breaker is not None:
            payload["breaker"] = breaker_view(self.telemetry.snapshot("breaker."))
        recovery = getattr(self.store, "recovery", None)
        if recovery is not None:
            payload["recovery"] = recovery.as_dict()
        return payload

    def _readyz(self) -> dict[str, Any]:
        """Readiness: flips to 503 the moment a drain begins."""
        if self.lifecycle.is_draining():
            raise ApiError(
                "service is draining; not accepting new work",
                503,
                {
                    "retry_after": self._drain_retry_after,
                    **self.lifecycle.status(),
                },
            )
        return {"ready": True, **self.lifecycle.status()}

    def _refuse_if_draining(self) -> None:
        """503 + ``Retry-After`` for new work once a drain has begun.

        Health probes, result polls and read-only topology lookups stay
        available so load balancers and pollers see a clean hand-off.
        """
        if self.lifecycle.is_draining():
            raise ApiError(
                "service is draining; retry against another replica",
                503,
                {
                    "retry_after": self._drain_retry_after,
                    "state": self.lifecycle.state,
                },
            )

    def _admit_write(self, headers: Mapping[str, str]) -> None:
        """A write's admission: refused while draining, 403 on a
        read-only replica (follower reads), 409 when stamped with
        another writer generation."""
        self._refuse_if_draining()
        if self.read_only:
            raise ApiError("this is a read-only replica; write to the shard owner", 403)
        self._check_epoch(headers)

    def _check_epoch(self, headers: Mapping[str, str]) -> None:
        """Fence writes stamped with a foreign writer generation.

        A mismatched ``X-Shard-Epoch`` means *somebody's* routing state
        is stale — either the caller holds a pre-failover ring and is
        talking to the wrong generation, or this worker is a superseded
        zombie still answering on its old port.  Both cases get the
        same structured 409; an unstamped write is accepted (the epoch
        protocol is opt-in for single-process deployments).
        """
        if self.epoch is None:
            return
        from repro.cluster.epoch import EPOCH_HEADER, fencing_rejection

        raw = headers.get(EPOCH_HEADER.lower())
        if raw is None:
            return
        try:
            request_epoch = int(raw)
        except ValueError:
            raise ApiError(
                f"{EPOCH_HEADER} must be an integer, got {raw!r}"
            ) from None
        if request_epoch != self.epoch:
            raise ApiError(
                f"write fenced: epoch {request_epoch} != {self.epoch}",
                409,
                fencing_rejection(self.epoch, request_epoch),
            )

    def _metrics_read(self, query: Mapping[str, str]) -> dict[str, Any]:
        """Read back stored series: ``?name=…`` plus tag filters.

        Every query parameter other than ``name`` is treated as an
        exact tag match; a series is returned when the filter is a
        subset of its tags.  The cluster tier uses this for follower
        reads and for the acknowledged-write-loss check after a shard
        ``kill -9``.
        """
        name = query.get("name")
        if not name:
            raise ApiError("name query parameter is required")
        filters = {k: v for k, v in query.items() if k != "name"}
        matched = self.store.query(name, filters)
        return {
            "series": [
                {
                    "name": name,
                    "tags": key.tag_dict(),
                    "timestamps": matched[key].timestamps.tolist(),
                    "values": matched[key].values.tolist(),
                }
                for key in sorted(matched, key=lambda key: key.tags)
            ]
        }

    def _state_hash(self) -> dict[str, Any]:
        """Content hash of the store, for shard/replica convergence checks."""
        from repro.durability.codec import store_content_hash

        payload: dict[str, Any] = {
            "content_hash": store_content_hash(self.store),
            "read_only": self.read_only,
        }
        if self.shard_id is not None:
            payload["shard_id"] = self.shard_id
        if self.epoch is not None:
            payload["epoch"] = self.epoch
        wal = getattr(self.store, "wal", None)
        if wal is not None:
            payload["last_lsn"] = wal.last_lsn
        return payload

    def _ship_now(self) -> dict[str, Any]:
        """Force a synchronous WAL-shipping pass (when shipping is on)."""
        if self.shipper is None:
            raise ApiError("WAL shipping is not enabled on this shard", 404)
        try:
            return self.shipper.ship_now()
        except OSError as exc:
            raise ApiError(f"shipping pass failed: {exc}", 503) from exc

    def _metrics_write(self, body: Mapping[str, Any]) -> dict[str, Any]:
        """Append samples to the store; 200 means *durably* accepted.

        Each ``[timestamp, value]`` sample, with the body's ``name`` and
        ``tags``, must pass the type rules a ``write_batch`` frame
        passes (:func:`~repro.timeseries.store.write_fields`: JSON
        numbers, not booleans, and a finite timestamp) before anything
        is written.  The samples then go to the store as one batch
        (:meth:`MetricsStore.write_many`), so when the store is a
        :class:`~repro.durability.DurableMetricsStore` they are
        journalled in one group commit (per the configured fsync policy)
        before the response leaves — the contract the crash-recovery
        harness verifies with ``kill -9``.
        """
        name = body.get("name")
        if not isinstance(name, str) or not name:
            raise ApiError("name must be a non-empty string")
        tags = body.get("tags")
        samples = body.get("samples")
        if not isinstance(samples, list) or not samples or not all(
            isinstance(sample, (list, tuple)) and len(sample) == 2
            for sample in samples
        ):
            raise ApiError(
                "samples must be a non-empty list of [timestamp, value] pairs"
            )
        checked = [
            write_fields({"name": name, "tags": tags, "ts": ts, "v": value})[2:]
            for ts, value in samples
        ]
        self.store.write_many(name, checked, tags)
        self._ship_after_write()
        return {"written": len(samples)}

    def _ship_after_write(self) -> None:
        """Synchronous replica catch-up before acking (when enabled).

        Ship-before-ack narrows the replica lag window to zero for
        acknowledged writes; a dead shipping link must not turn a
        durable local write into a client-visible failure.
        """
        if self.sync_ship and self.shipper is not None:
            try:
                self.shipper.ship_now()
            except OSError:
                pass

    def _metrics_write_batch(self, raw: bytes | None) -> dict[str, Any]:
        """Batched binary ingest: WAL-framed samples, one group commit.

        The body is the WAL codec's framing verbatim (see
        :mod:`repro.api.ingest`); accepted frames are applied through
        the store's batched fast path and journaled in one group commit
        — at most one fsync per request under ``fsync="always"``.
        Individually bad frames are rejected per frame (reported with
        their index) without poisoning the rest of the batch.
        """
        if raw is None:
            raise ApiError(
                "write_batch requires a framed binary body "
                f"(Content-Type: {FRAMES_CONTENT_TYPE})"
            )
        payloads, fault = split_frames(raw)
        if fault is not None:
            # An earlier payload that is not JSON outranks it.
            self.store.frame_samples(payloads)
            raise fault
        if not payloads:
            raise ApiError("write_batch body contains no frames")
        result = self.store.ingest_frames(payloads)
        self._ship_after_write()
        return result

    def handle_write_batch_frames(
        self,
        frames: list[bytes],
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, dict[str, Any]]:
        """Commit one group of an in-flight batch stream.

        The HTTP listener chunks a large ``write_batch`` body into
        commit groups and calls this once per group (``frames`` is the
        group's payload bytes), streaming each result as it lands.
        Admission (drain, read-only, epoch fence) is re-checked per
        group: a drain beginning mid-stream refuses the *remaining*
        groups with 503 while every already-streamed ack stands —
        acknowledged frames are already durable.
        """
        lowered = {k.lower(): v for k, v in dict(headers or {}).items()}
        try:
            self._admit_write(lowered)
            result = self.store.ingest_frames(frames)
            self._ship_after_write()
            return 200, result
        except ApiError as exc:
            return exc.status, {"error": str(exc), **exc.payload}
        except ReproError as exc:
            return 400, {"error": str(exc)}

    def _topology_info(self, name: str, kind: str) -> dict[str, Any]:
        tracked = self._tracked(name)
        if kind == "logical":
            return tracked.logical_plan()
        if kind == "packing":
            return tracked.packing_plan()
        raise ApiError(f"unknown topology view {kind!r}", 404)

    # ------------------------------------------------------------------
    # Modelling endpoints (routed through the serving layer)
    # ------------------------------------------------------------------
    def _serve(
        self,
        descriptor: RequestDescriptor,
        compute: Callable[[], dict[str, Any]],
        priority: int,
        blocking: bool | str,
    ) -> dict[str, Any] | bytes | None:
        """Answer a validated modelling request.  Without ``blocking``
        only a cached answer (its stored bytes) comes back, else ``None``:
        ``compute`` never runs and nothing is waited for.  ``_ENCODED``
        takes a computed answer as the bytes it was stored as, too."""
        deadline = current_deadline()
        timeout = None
        if deadline is not None:
            deadline.check()  # 504 before queueing when already expired
            timeout = deadline.remaining()
        if not blocking:
            return None if self.serving is None else self.serving.cached(descriptor)
        if self.serving is None:
            return compute()
        serve = (
            self.serving.payload if blocking is _ENCODED else self.serving.execute
        )
        return serve(descriptor, compute, priority, timeout=timeout)

    def _evaluate(self, compute: Callable[[], T]) -> T:
        """Run model evaluation under the circuit breaker (if enabled)."""
        if self.breaker is None:
            return compute()
        return self.breaker.call(compute)

    def _traffic(
        self, topology: str, query: Mapping[str, str]
    ) -> _Plan:
        horizon = _int_param(query, "horizon_minutes", default=60)
        source = _int_param(query, "source_minutes", default=None)
        model = query.get("model")
        self._tracked(topology)  # 404 before caching/admission
        descriptor = RequestDescriptor.of(
            "traffic",
            topology,
            model,
            {"horizon_minutes": horizon, "source_minutes": source},
        )
        return (
            descriptor,
            lambda: self._traffic_uncached(topology, horizon, source, model),
            _priority_param(query),
        )

    def _traffic_uncached(
        self,
        topology: str,
        horizon: int,
        source: int | None,
        model: str | None,
    ) -> dict[str, Any]:
        self._require_healthy_metrics(topology)
        models = self.registry.traffic_model(model)
        results = self._evaluate(
            lambda: [
                m.predict(topology, source, horizon).as_dict() for m in models
            ]
        )
        return {"topology": topology, "results": results}

    def _performance(
        self,
        topology: str,
        query: Mapping[str, str],
        body: Mapping[str, Any],
    ) -> _Plan:
        source_rate = _source_rate(body, required=False)
        parallelisms = body.get("parallelisms")
        if parallelisms is not None:
            if not isinstance(parallelisms, dict) or not all(
                is_count(v) for v in parallelisms.values()
            ):
                raise ApiError("parallelisms must map components to integers")
            # An empty plan is no plan: one fingerprint, one cached answer.
            parallelisms = parallelisms or None
        traffic_model_name = body.get("traffic_model")
        horizon = _int_param(query, "horizon_minutes", default=60)
        model = query.get("model")
        tracked = self._tracked(topology)  # 404 before caching/admission
        if parallelisms:
            _check_plans(
                tracked,
                [parallelisms],
                "unknown component {name!r}",
                "component {name!r} parallelism must be >= 1, got {parallelism}",
            )
        descriptor = RequestDescriptor.of(
            "performance",
            topology,
            model,
            {
                "horizon_minutes": horizon,
                "source_rate": source_rate,
                "parallelisms": parallelisms,
                "traffic_model": traffic_model_name,
            },
        )
        return (
            descriptor,
            lambda: self._performance_uncached(
                topology, horizon, source_rate, parallelisms,
                traffic_model_name, model,
            ),
            _priority_param(query),
        )

    def _performance_uncached(
        self,
        topology: str,
        horizon: int,
        source_rate: float | None,
        parallelisms: dict[str, int] | None,
        traffic_model_name: str | None,
        model: str | None,
    ) -> dict[str, Any]:
        self._require_healthy_metrics(topology)
        # Looked up out here: a model name the configuration does not
        # enable is the caller's mistake, not an evaluator failure.
        models = self.registry.performance_model(model)
        traffic_models = (
            self.registry.traffic_model(traffic_model_name)
            if source_rate is None
            else []
        )

        def evaluate() -> list[dict[str, Any]]:
            traffic = None
            if source_rate is None:
                traffic = traffic_models[0].predict(topology, None, horizon)
            passes: dict = {}  # the models read one evaluation
            return [
                m.predict(
                    topology,
                    source_rate=source_rate,
                    traffic=traffic,
                    parallelisms=parallelisms,
                    passes=passes,
                ).as_dict()
                for m in models
            ]

        return {"topology": topology, "results": self._evaluate(evaluate)}

    _MAX_SWEEP_PLANS = 1024
    #: Instances of one component a plan may propose.  The paper's
    #: topologies run tens to hundreds; every rescale allocates a share
    #: vector this long (and a sweep one per plan).
    _MAX_PARALLELISM = 10_000

    def _plan_sweep(
        self,
        topology: str,
        query: Mapping[str, str],
        body: Mapping[str, Any],
    ) -> _Plan:
        source_rate = _source_rate(body, required=True)
        plans = body.get("plans")
        if not isinstance(plans, list) or not plans:
            raise ApiError("plans must be a non-empty list of parallelism maps")
        if len(plans) > self._MAX_SWEEP_PLANS:
            raise ApiError(
                f"at most {self._MAX_SWEEP_PLANS} plans per sweep, "
                f"got {len(plans)}"
            )
        for plan in plans:
            if not isinstance(plan, dict) or not all(
                isinstance(k, str) and is_count(v) for k, v in plan.items()
            ):
                raise ApiError(
                    "each plan must map component names to integer "
                    "parallelisms"
                )
        top_k = _int_param(query, "top_k", default=None)
        tracked = self._tracked(topology)  # 404 before caching/admission
        _check_plans(
            tracked,
            plans,
            "plan names unknown component {name!r} in topology {topology!r}",
            "plan parallelism for {name!r} must be >= 1, got {parallelism}",
        )
        descriptor = RequestDescriptor.of(
            "plan_sweep",
            topology,
            None,
            {
                "source_rate": source_rate,
                "plans": plans,
                "top_k": top_k,
            },
        )
        return (
            descriptor,
            lambda: self._plan_sweep_uncached(
                topology, float(source_rate), plans, top_k
            ),
            _priority_param(query),
        )

    def _plan_sweep_uncached(
        self,
        topology: str,
        source_rate: float,
        plans: list[dict[str, int]],
        top_k: int | None,
    ) -> dict[str, Any]:
        self._require_healthy_metrics(topology)
        return self._evaluate(
            lambda: self.sweep_engine.sweep(
                topology, source_rate, plans, top_k=top_k
            )
        )

    def _recompute(self, descriptor: RequestDescriptor) -> dict[str, Any]:
        """Replay a descriptor's computation (warm-cache precompute)."""
        params = json.loads(descriptor.params)
        if descriptor.kind == "traffic":
            return self._traffic_uncached(
                descriptor.topology,
                params["horizon_minutes"],
                params["source_minutes"],
                descriptor.model,
            )
        if descriptor.kind == "performance":
            return self._performance_uncached(
                descriptor.topology,
                params["horizon_minutes"],
                params["source_rate"],
                params["parallelisms"],
                params["traffic_model"],
                descriptor.model,
            )
        if descriptor.kind == "plan_sweep":
            return self._plan_sweep_uncached(
                descriptor.topology,
                float(params["source_rate"]),
                params["plans"],
                params["top_k"],
            )
        raise ApiError(f"unknown descriptor kind {descriptor.kind!r}", 500)

    # ------------------------------------------------------------------
    # Async jobs
    # ------------------------------------------------------------------
    def _maybe_async(
        self,
        query: Mapping[str, str],
        plan: Callable[[], _Plan],
        blocking: bool | str,
    ) -> dict[str, Any] | bytes | None:
        """Validate (``plan``) and serve a modelling request: now, or
        with ``?async=1`` as a job on the modelling pool (a job holds
        the decoded answer, whoever asked)."""

        def work(blocking: bool | str = True):
            return self._serve(*plan(), blocking)

        if query.get("async") not in ("1", "true", "yes"):
            return work(blocking)
        if not blocking:
            return None
        request_id = uuid.uuid4().hex
        if self.shard_id is not None:
            # Router-routable: /model/result/{id} polls carry the owning
            # shard in the id itself, so any front door can route them.
            request_id = f"s{self.shard_id}-{request_id}"
        # The pool worker runs outside the request's context; re-install
        # the deadline so async jobs honour it too.
        deadline = current_deadline()
        job = _Job()

        def scoped_work():
            try:
                with deadline_scope(deadline):
                    return work()
            finally:
                # Stamped before the result is visible, whether or not any
                # client ever polls — expiry must not depend on being
                # observed, and a poll that sees "done" sees the stamp.
                job.done_at = self._clock.monotonic()

        job.future = self._pool.submit(scoped_work)
        with self._jobs_lock:
            self._evict_expired_jobs_locked()
            self._jobs[request_id] = job
        return {"request_id": request_id, "status": "pending"}

    def _evict_expired_jobs_locked(self) -> None:
        now = self._clock.monotonic()
        expired = [
            request_id
            for request_id, job in self._jobs.items()
            if job.done_at is not None and now - job.done_at > self._job_ttl
        ]
        for request_id in expired:
            del self._jobs[request_id]

    def _result(self, request_id: str) -> dict[str, Any]:
        with self._jobs_lock:
            self._evict_expired_jobs_locked()
            job = self._jobs.get(request_id)
        if job is None:
            raise ApiError(f"unknown request id {request_id!r}", 404)
        if not job.future.done():
            return {"request_id": request_id, "status": "pending"}
        # Completed results stay pollable until their TTL expires, so a
        # retried or concurrent poll is idempotent instead of 404ing.
        try:
            result = job.future.result()
        except ReproError as exc:
            return {"request_id": request_id, "status": "error", "error": str(exc)}
        return {"request_id": request_id, "status": "done", "result": result}

    def shutdown(self) -> None:
        """Stop the worker pool (pending jobs are completed)."""
        self._pool.shutdown(wait=True)
        if self.serving is not None:
            self.serving.close()


def stats_view(snapshot: Snapshot) -> dict[str, Any]:
    """The ``/serving/stats`` document, read from one app's snapshot or
    a fleet's merged one: the serving layer's block
    (:func:`~repro.serving.layer.serving_view`), the calibration cache's
    and, where a breaker counted, the breaker's."""
    stats = serving_view(snapshot)
    stats["calibration"] = readings(
        snapshot, "calibration.", "hits", "misses", "entries"
    )
    breaker = breaker_view(snapshot)
    if breaker is not None:
        stats["breaker"] = breaker
    return stats


def is_number(value: Any) -> bool:
    """A JSON number.  ``true`` is not one, though ``bool`` is an ``int``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_count(value: Any) -> bool:
    """A JSON integer (and, as above, not a boolean)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _source_rate(body: Mapping[str, Any], required: bool) -> float | None:
    """The request's ``source_rate``: a non-negative JSON number."""
    value = body.get("source_rate")
    if value is None and not required:
        return None
    if not is_number(value):
        raise ApiError("source_rate must be a number")
    if not abs(value) <= sys.float_info.max:  # NaN, Infinity, 1e400 as an int
        raise ApiError("source_rate must be finite")
    if value < 0:
        raise ApiError("source_rate must be non-negative")
    return value


def _check_plans(
    tracked: TrackedTopology,
    plans: Sequence[Mapping[str, int]],
    unknown: str,
    below_one: str,
) -> None:
    """400 for a parallelism plan the topology cannot take.

    The models refuse the same plans (and a negative source rate) in the
    same words, but from inside ``_evaluate``, where the circuit breaker
    books the refusal as an evaluator failure: five mistyped requests
    would open the circuit for every other caller.  Request-derived
    input is judged before it.
    """
    known = tracked.topology.components  # a copy per read: take it once
    for plan in plans:
        for name, parallelism in plan.items():
            if name not in known:
                raise ApiError(unknown.format(name=name, topology=tracked.name))
            if parallelism < 1:
                raise ApiError(
                    below_one.format(name=name, parallelism=parallelism)
                )
            if parallelism > CaladriusApp._MAX_PARALLELISM:
                raise ApiError(
                    f"parallelism {parallelism} for {name!r} is above the "
                    f"{CaladriusApp._MAX_PARALLELISM} a plan may propose"
                )


def _int_param(
    query: Mapping[str, str], name: str, default: int | None
) -> int | None:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ApiError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ApiError(f"{name} must be >= 1")
    return value


def _priority_param(query: Mapping[str, str]) -> int:
    raw = query.get("priority", "interactive")
    if raw == "interactive":
        return INTERACTIVE
    if raw == "precompute":
        return PRECOMPUTE
    raise ApiError(
        f"priority must be 'interactive' or 'precompute', got {raw!r}"
    )
