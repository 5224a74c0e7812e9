"""The cluster front door: consistent-hash routing over shard workers.

:class:`RouterApp` duck-types :class:`~repro.api.app.CaladriusApp`
(``handle`` / ``lifecycle`` / ``config`` / ``telemetry`` /
``raw_body_paths``) so the one HTTP listener,
:class:`~repro.api.server.CaladriusServer`, hosts it like any other
app.  It has no ``handle_write_batch_frames``: batches arrive through
``handle`` as raw bytes and are answered as one merged JSON document,
never streamed.  It owns a
:class:`~repro.cluster.shard.ShardManager` and routes every
topology-keyed request — modelling calls, topology lookups, metric
writes — to the shard that owns the topology id on the
:class:`~repro.cluster.ring.HashRing`.  Fleet-wide endpoints fan out:

* ``GET /healthz`` — per-shard health plus an overall status that
  degrades when any shard is down or restarting;
* ``GET /telemetry`` — every shard's registry snapshot plus the
  router's own, added up by :func:`~repro.telemetry.merge`;
* ``GET /serving/stats`` — the same document a shard answers, read from
  that merge, plus each shard's own and the router's counters;
* ``GET /topologies`` — the union of every shard's registry;
* ``GET /cluster/ring`` — the current ring (shard ids, virtual nodes,
  addresses, version) for shard-aware clients;
* ``POST /cluster/resize`` — grow or shrink the fleet; the ring is
  rebuilt and the version bumped so clients refresh.

While a shard is down or replaying its WAL after a crash, requests for
its topologies are answered 503 + ``Retry-After`` — the router never
silently reroutes a topology to a shard that doesn't own it, because
per-shard data directories mean only the owner has the data.  Two
exceptions soften that during failover windows:

* **stale reads** — a GET carrying ``X-Allow-Stale-Read`` is served
  from the shard's live follower replica while the primary is
  restarting or promoting; the response is annotated with
  ``"stale_read": true`` plus the shard's state so the caller knows
  what it got;
* **epoch stamping** — every proxied request carries ``X-Shard-Epoch``
  (the owner's current writer generation), so a write that races a
  promotion and lands on the superseded zombie is refused with a
  structured 409 instead of diverging state.

Every router → shard exchange is one call of
:meth:`~repro.api.client.CaladriusClient.exchange` on a per-shard
keep-alive client (:class:`~repro.cluster.client.ShardClients`, keyed by
shard id) — :meth:`RouterApp._hop`, which is also where "no response"
becomes the 503 refusal.  The router never retries a hop: waiting out a
recovering shard is the calling client's retry budget.  A batch is split
and its acks merged by the functions :mod:`repro.api.ingest` shares with
the cluster client.

The router is the *control* plane and slow-path proxy.  Throughput-
critical callers use :class:`~repro.cluster.client.ClusterClient`,
which fetches the ring once and talks to shards directly.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any
from urllib.parse import urlencode

from repro.api.app import is_number, stats_view
from repro.api.client import (
    SOCKET_TRANSPORT,
    TRANSPORT_ERRORS,
    CaladriusClient,
    Transport,
)
from repro.api.ingest import (
    FRAMES_CONTENT_TYPE,
    keyed_frames,
    merge_owner_acks,
    routing_key,
    split_by_owner,
)
from repro.clock import SYSTEM_CLOCK, Clock
from repro.cluster.client import ShardClients
from repro.cluster.epoch import EPOCH_HEADER
from repro.cluster.ring import DEFAULT_VIRTUAL_NODES, HashRing
from repro.cluster.shard import ShardManager
from repro.config.loader import CaladriusConfig
from repro.durability.lifecycle import LifecycleController
from repro.errors import ApiError
from repro.telemetry import Snapshot, Telemetry, merge, readings

__all__ = ["RouterApp"]

logger = logging.getLogger("repro.cluster.router")

_RESULT_ID = re.compile(r"^s(\d+)-")
#: Fleet fan-out parallelism for /healthz, /telemetry, /topologies.
_FANOUT_WORKERS = 8
#: The ``retry_after`` of every refusal the router words itself.
_RETRY_AFTER_SECONDS = 1
#: Caller headers that ride along on a router → shard hop.
_FORWARDED = ("x-request-deadline", "x-request-priority")


class RouterApp:
    """Routes requests across the shard fleet (hosted by CaladriusServer).

    ``clock`` and ``transport`` are the seams of the router's shard hops
    (:class:`~repro.api.client.CaladriusClient`'s); ``telemetry`` is the
    router's own registry (``router.*``), a private one by default.
    """

    # The hosting server hands these paths' bodies over as raw bytes
    # (WAL-framed samples), not parsed JSON.
    raw_body_paths = ("/metrics/write_batch",)

    def __init__(
        self,
        config: CaladriusConfig,
        manager: ShardManager,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
        proxy_timeout: float = 30.0,
        clock: Clock = SYSTEM_CLOCK,
        transport: Transport = SOCKET_TRANSPORT,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config
        self.telemetry = telemetry or Telemetry(clock)
        self.manager = manager
        self.virtual_nodes = virtual_nodes
        self.proxy_timeout = proxy_timeout
        self.lifecycle = LifecycleController()
        self._clock = clock
        self._clients = ShardClients(
            timeout=proxy_timeout, clock=clock, transport=transport
        )
        self._ring_lock = threading.Lock()
        self._ring: HashRing | None = None
        self._ring_version = -1
        self._fanout = ThreadPoolExecutor(
            max_workers=_FANOUT_WORKERS, thread_name_prefix="router-fanout"
        )
        self._started = clock.monotonic()

    # ------------------------------------------------------------------
    # Ring
    # ------------------------------------------------------------------
    def ring(self) -> HashRing:
        """The current ring, rebuilt when fleet membership changed."""
        version = self.manager.version
        with self._ring_lock:
            if self._ring is None or self._ring_version != version:
                self._ring = HashRing(
                    self.manager.shard_ids(), self.virtual_nodes
                )
                self._ring_version = version
            return self._ring

    def shard_for(self, topology: str) -> int:
        return self.ring().shard_for(topology)

    # ------------------------------------------------------------------
    # Entry point (CaladriusServer calls this)
    # ------------------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        query: dict[str, str] | None = None,
        body: Any = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, Any]]:
        method = method.upper()
        query = dict(query or {})
        raw = bytes(body) if isinstance(body, (bytes, bytearray)) else None
        body = body if isinstance(body, dict) else {}
        parts = [p for p in path.split("/") if p]
        try:
            if method == "POST" and parts == ["metrics", "write_batch"]:
                return self._write_batch(raw, headers or {})
            return self._route(method, parts, query, body, headers or {})
        except Exception:
            logger.exception("router failed on %s %s", method, path)
            return 500, {"error": f"router error handling {method} {path}"}

    def _route(
        self,
        method: str,
        parts: list[str],
        query: dict[str, str],
        body: dict[str, Any],
        headers: dict[str, str],
    ) -> tuple[int, dict[str, Any]]:
        if method == "GET" and parts == ["healthz"]:
            return self._healthz()
        if method == "GET" and parts == ["readyz"]:
            return self._readyz()
        if method == "GET" and parts == ["serving", "stats"]:
            return self._serving_stats()
        if method == "GET" and parts == ["telemetry"]:
            return self._telemetry()
        if method == "GET" and parts == ["topologies"]:
            return self._topologies()
        if method == "GET" and parts == ["cluster", "ring"]:
            return 200, self._ring_payload()
        if method == "GET" and parts == ["cluster", "stats"]:
            return self._cluster_stats()
        if method == "POST" and parts == ["cluster", "resize"]:
            return self._resize(body)
        if (
            method == "GET"
            and len(parts) == 3
            and parts[:2] == ["model", "result"]
        ):
            return self._route_result(parts[2], query, headers)
        topology = self._topology_for(method, parts, query, body)
        if topology is not None:
            shard_id = self.shard_for(topology)
            return self._proxy(shard_id, method, parts, query, body, headers)
        return 404, {
            "error": f"no cluster route for {method} /{'/'.join(parts)}"
        }

    # ------------------------------------------------------------------
    # Topology-keyed routing
    # ------------------------------------------------------------------
    @staticmethod
    def _topology_for(
        method: str,
        parts: list[str],
        query: dict[str, str],
        body: dict[str, Any],
    ) -> str | None:
        """The routing key for a request, or ``None`` when unroutable."""
        if len(parts) == 3 and parts[0] == "topology":
            return parts[1]
        if (
            len(parts) == 4
            and parts[0] == "model"
            and parts[1] in ("traffic", "topology", "plan_sweep")
        ):
            return parts[3]
        if parts == ["metrics", "write"]:
            return routing_key(body.get("name"), body.get("tags")) or None
        if parts == ["metrics", "read"]:
            # A read's tag filters are its query parameters.
            return routing_key(query.get("name"), query) or None
        return None

    def _route_result(
        self, request_id: str, query: dict[str, str], headers: dict[str, str]
    ) -> tuple[int, dict[str, Any]]:
        match = _RESULT_ID.match(request_id)
        if not match:
            return 404, {
                "error": (
                    f"request id {request_id!r} carries no shard prefix; "
                    "poll the shard that issued it"
                )
            }
        shard_id = int(match.group(1))
        if shard_id not in self.ring().shard_ids:
            return 404, {"error": f"no shard {shard_id} in the cluster"}
        return self._proxy(
            shard_id, "GET", ["model", "result", request_id], query, {}, headers
        )

    # ------------------------------------------------------------------
    # Proxy plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _wants_stale(headers: dict[str, str]) -> bool:
        value = {k.lower(): v for k, v in headers.items()}.get("x-allow-stale-read", "")
        return value.strip().lower() in ("1", "true", "yes")

    def _proxy(
        self,
        shard_id: int,
        method: str,
        parts: list[str],
        query: dict[str, str],
        body: dict[str, Any],
        headers: dict[str, str],
    ) -> tuple[int, dict[str, Any]]:
        path = "/" + "/".join(parts)
        if query:
            # The listener percent-decoded these; encode them again.
            path += "?" + urlencode(query)
        payload = json.dumps(body).encode("utf8") if body else None
        return self._forward(shard_id, method, path, payload, headers)

    def _forward(
        self,
        shard_id: int,
        method: str,
        path: str,
        payload: bytes | None,
        headers: dict[str, str],
        content_type: str = "application/json",
    ) -> tuple[int, dict[str, Any]]:
        """Send one request to a shard's primary, stamped with its epoch.

        A shard that is not serving is refused here, 503 +
        ``retry_after`` — unless the caller opted into a stale read and
        the shard's follower is alive to answer it.
        """
        address = self.manager.address_of(shard_id)
        if address is None:
            state = self.manager.state_of(shard_id)
            if method == "GET" and self._wants_stale(headers):
                follower = self.manager.follower_address_of(shard_id)
                if follower is not None:
                    # Promotion-window read: the follower's mirror may
                    # trail the primary by the replication lag, but the
                    # caller opted in explicitly.
                    client = self._clients.get(
                        ("follower", shard_id), follower
                    )
                    status, answer = self._hop(
                        shard_id, client, method, path, payload, {}
                    )
                    if status < 500:
                        answer["stale_read"] = True
                        answer["shard_state"] = state
                    return status, answer
            return self._refuse(
                shard_id,
                f"{state or 'unknown'} (recovering its WAL); retry shortly",
                shard_state=state,
            )
        forward = {
            k: v for k, v in headers.items() if k.lower() in _FORWARDED
        }
        # Stamp the owner's writer generation: a zombie primary that
        # was fenced off by a promotion answers 409 instead of silently
        # accepting a write for a shard it no longer owns.
        forward[EPOCH_HEADER] = str(self.manager.epoch_of(shard_id))
        client = self._clients.get(shard_id, address)
        return self._hop(
            shard_id, client, method, path, payload, forward, content_type
        )

    def _hop(
        self,
        shard_id: int,
        client: CaladriusClient,
        method: str,
        path: str,
        payload: bytes | None,
        headers: dict[str, str],
        content_type: str = "application/json",
    ) -> tuple[int, dict[str, Any]]:
        """The one router → shard exchange: the shard's answer as it
        came, or the 503 refusal when no answer arrived."""
        try:
            status, answer, _ = client.exchange(
                method, path, payload, headers, content_type
            )
        except TRANSPORT_ERRORS as exc:
            return self._refuse(shard_id, f"unreachable: {exc}")
        except ApiError as exc:
            status = exc.status
            answer = {"error": "shard returned a non-JSON response"}
        self.telemetry.count("router.proxied")
        return status, answer

    def _refuse(
        self, shard_id: int, reason: str, **extra: Any
    ) -> tuple[int, dict[str, Any]]:
        """The retryable 503 for a shard that cannot answer right now."""
        self.telemetry.count("router.unavailable")
        return 503, {
            "error": f"shard {shard_id} is {reason}",
            "retry_after": _RETRY_AFTER_SECONDS,
            "shard_id": shard_id,
            **extra,
        }

    # ------------------------------------------------------------------
    # Batched ingest: split by ring owner, forward sub-batches raw
    # ------------------------------------------------------------------
    def _write_batch(
        self, raw: bytes | None, headers: dict[str, str]
    ) -> tuple[int, dict[str, Any]]:
        """Split a mixed-topology frame batch across its owning shards.

        Frames are regrouped by ring owner and each sub-batch is
        forwarded concurrently as raw frames (payload bytes untouched),
        stamped with the owner's epoch.  Per-shard outcomes are merged
        with frame indexes rebased onto the original batch; a refused
        sub-batch (owner down, fenced) is reported retryably in
        ``refused`` without poisoning the others.  Only when *no* frame
        was accepted anywhere does the whole request answer 503 +
        ``Retry-After``.
        """
        if raw is None:
            return 400, {
                "error": "write_batch requires a framed binary body "
                f"(Content-Type: {FRAMES_CONTENT_TYPE})"
            }
        try:
            frames = keyed_frames(raw)
        except ApiError as exc:
            return exc.status, {"error": str(exc), **exc.payload}
        if not frames:
            return 400, {"error": "write_batch body contains no frames"}
        groups = split_by_owner(frames, self.shard_for)
        futures = {
            shard_id: self._fanout.submit(
                self._forward,
                shard_id,
                "POST",
                "/metrics/write_batch",
                body,
                headers,
                FRAMES_CONTENT_TYPE,
            )
            for shard_id, (_, body) in groups.items()
        }
        outcomes = {
            shard_id: future.result() for shard_id, future in futures.items()
        }
        summary = merge_owner_acks(len(frames), groups, outcomes)
        # The wire document: LSNs only per shard, commit groups folded.
        del summary["commits"]
        summary["first_lsn"] = summary["last_lsn"] = None
        if not summary["refused"]:
            del summary["refused"]
        elif summary["acked"] == 0 and not summary["rejected"]:
            # Nothing landed anywhere: surface it as one retryable 503
            # so plain clients re-send the whole batch.
            hints = [
                int(answer["retry_after"])
                for status, answer in outcomes.values()
                if status != 200 and is_number(answer.get("retry_after"))
            ]
            summary["error"] = "no shard accepted the batch; retry shortly"
            summary["retry_after"] = (
                max(hints, default=0) or _RETRY_AFTER_SECONDS
            )
            return 503, summary
        return 200, summary

    def _fan_out(
        self, method: str, path: str
    ) -> dict[int, tuple[int, dict[str, Any]]]:
        """Run one request against every shard concurrently."""
        shard_ids = self.manager.shard_ids()
        futures = {
            shard_id: self._fanout.submit(
                self._proxy, shard_id, method,
                [p for p in path.split("/") if p], {}, {}, {},
            )
            for shard_id in shard_ids
        }
        return {shard_id: f.result() for shard_id, f in futures.items()}

    # ------------------------------------------------------------------
    # Fleet-wide endpoints
    # ------------------------------------------------------------------
    def _healthz(self) -> tuple[int, dict[str, Any]]:
        responses = self._fan_out("GET", "/healthz")
        shards = []
        healthy = 0
        for shard_id in self.manager.shard_ids():
            handle = self.manager.handle(shard_id)
            if handle is None:  # resized away mid-request
                continue
            status = handle.status()
            code, payload = responses.get(shard_id, (503, {}))
            if code == 200:
                healthy += 1
                status["health"] = payload
            shards.append(status)
        total = len(shards)
        overall = "ok" if healthy == total and total > 0 else "degraded"
        return 200, {
            "status": overall,
            "role": "router",
            "lifecycle": self.lifecycle.status(),
            "shards_total": total,
            "shards_healthy": healthy,
            "ring_version": self.manager.version,
            "shards": shards,
        }

    def _readyz(self) -> tuple[int, dict[str, Any]]:
        if self.lifecycle.is_draining():
            return 503, {
                "ready": False,
                "error": "router is draining",
                "retry_after": _RETRY_AFTER_SECONDS,
            }
        if not self.manager.all_ready():
            return 503, {
                "ready": False,
                "error": "one or more shards are not ready",
                "retry_after": _RETRY_AFTER_SECONDS,
                "shards": self.manager.statuses(),
            }
        return 200, {"ready": True, "shards": len(self.manager.shard_ids())}

    def _telemetry(self) -> tuple[int, Snapshot]:
        responses = self._fan_out("GET", "/telemetry")
        # Of the router's own registry only ``router.*``: its listener's
        # ``api.handle`` spans would count each proxied request twice.
        # Taken after the fan-out, so it holds that fan-out's hops.
        own = self.telemetry.snapshot("router.")
        return 200, merge([*_reported(responses).values(), own])

    def _router_view(self) -> dict[str, Any]:
        return {
            **readings(self.telemetry.snapshot("router."), "router.",
                       "proxied", "unavailable"),
            "uptime_seconds": self._clock.monotonic() - self._started,
        }

    def _serving_stats(self) -> tuple[int, dict[str, Any]]:
        """A shard's document read from the fleet's merged snapshot, with
        its top-level numbers again under ``totals``, each shard's own
        document under ``per_shard`` and the router's counters."""
        responses = self._fan_out("GET", "/telemetry")
        snapshots = _reported(responses)
        fleet = stats_view(merge(snapshots.values()))
        return 200, {
            **fleet,
            "aggregated": True,
            "shards_reporting": len(snapshots),
            "shards_total": len(responses),
            "totals": {key: value for key, value in fleet.items() if is_number(value)},
            "router": self._router_view(),
            "per_shard": {
                str(shard_id): stats_view(payload) if code == 200 else {
                    "error": payload.get("error", f"status {code}")
                }
                for shard_id, (code, payload) in sorted(responses.items())
            },
        }

    def _topologies(self) -> tuple[int, dict[str, Any]]:
        responses = self._fan_out("GET", "/topologies")
        names: set[str] = set()
        for code, payload in responses.values():
            if code == 200:
                names.update(payload.get("topologies", []))
        return 200, {"topologies": sorted(names)}

    def _ring_payload(self) -> dict[str, Any]:
        ring = self.ring()
        addresses = {}
        states = {}
        epochs = {}
        for shard_id in ring.shard_ids:
            address = self.manager.address_of(shard_id)
            addresses[str(shard_id)] = (
                f"{address[0]}:{address[1]}" if address else None
            )
            states[str(shard_id)] = self.manager.state_of(shard_id)
            epochs[str(shard_id)] = self.manager.epoch_of(shard_id)
        return {
            "shards": list(ring.shard_ids),
            "virtual_nodes": ring.virtual_nodes,
            "version": self.manager.version,
            "addresses": addresses,
            "states": states,
            "epochs": epochs,
        }

    def _cluster_stats(self) -> tuple[int, dict[str, Any]]:
        return 200, {
            "ring": self._ring_payload(),
            "shards": self.manager.statuses(),
            "router": self._router_view(),
        }

    def _resize(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        shards = body.get("shards")
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            return 400, {"error": "shards must be a positive integer"}
        before = self.ring()
        changes = self.manager.resize(shards)
        after = self.ring()
        moved = []
        # Report which currently-registered topologies changed owner —
        # callers see exactly what the consistent hash moved.
        _, payload = self._topologies()
        for name in payload["topologies"]:
            if before.shard_for(name) != after.shard_for(name):
                moved.append(name)
        return 200, {**changes, "version": self.manager.version, "moved": moved}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the fan-out pool and the whole shard fleet."""
        self._fanout.shutdown(wait=False)
        self._clients.close()
        self.manager.stop_all()


def _reported(responses: dict[int, tuple[int, dict[str, Any]]]) -> dict[int, Snapshot]:
    """The snapshots of the shards that answered a ``/telemetry`` fan-out."""
    return {
        shard_id: payload
        for shard_id, (code, payload) in responses.items()
        if code == 200
    }
