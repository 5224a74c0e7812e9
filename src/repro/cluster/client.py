"""Shard-aware client: route around the router for data-plane calls.

The router is a single Python process; pushing every modelling request
and metric write through it would serialise the fleet behind one GIL.
:class:`ClusterClient` instead fetches ``GET /cluster/ring`` once,
builds the same :class:`~repro.cluster.ring.HashRing` the router uses
(the ring is deterministic, so both always agree on placement) and
talks to the owning shard directly over a per-shard keep-alive
:class:`~repro.api.client.CaladriusClient` (:class:`ShardClients`, which
the router keeps for its own hops too).

When a direct call fails — the shard crashed, the ring changed under
us, or the write was fenced off by a newer epoch — the client refreshes
the ring and falls back to the router proxy for that one call.  That
fallback is one ordinary call on the router's client, whose retry loop
is the only one there is: it honors the router's 503 ``Retry-After``
(owner down or replaying its WAL) capped at ``backoff_max_seconds``,
and ``retries`` is the whole budget.  Control-plane reads (``healthz``,
``serving/stats``, ``topologies``) always go to the router, whose
fan-out aggregation is the point.

Direct writes are epoch-stamped from the ring payload's ``epochs`` map,
so a write racing a promotion gets a structured 409 from the superseded
worker instead of silently landing on fenced state; the client then
refreshes and retries through the router.
"""

from __future__ import annotations

import logging
import threading
from collections.abc import Hashable, Iterable
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.api.client import BatchAck, CaladriusClient
from repro.api.ingest import (
    encode_frame,
    keyed_frames,
    merge_owner_acks,
    routing_key,
    split_by_owner,
)
from repro.cluster.ring import HashRing
from repro.errors import ApiError

__all__ = ["ClusterClient", "ShardClients"]

logger = logging.getLogger("repro.cluster.client")


class ShardClients:
    """Single-shot keep-alive clients, one per shard id.

    Keyed by shard id, not address: every respawn or promotion moves a
    shard to a new ephemeral port, and a client cached under the old one
    would be stranded with its per-thread sockets.  A changed address
    closes and replaces the entry.  The clients never retry — whoever
    holds them decides what a failed hop means.  (The router also keeps
    a shard's follower here, under ``("follower", id)``.)
    """

    def __init__(self, **client_options: Any) -> None:
        self._options = {**client_options, "retries": 0}
        self._lock = threading.Lock()
        self._clients: dict[Hashable, CaladriusClient] = {}

    def get(self, key: Hashable, address: tuple[str, int]) -> CaladriusClient:
        """The client for shard ``key``, which now lives at ``address``."""
        with self._lock:
            client = self._clients.get(key)
            if client is None or (client.host, client.port) != address:
                if client is not None:
                    client.close()
                client = CaladriusClient(*address, **self._options)
                self._clients[key] = client
            return client

    def close(self) -> None:
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            client.close()


class ClusterClient:
    """Routes topology-keyed calls straight to the owning shard.

    Parameters
    ----------
    host / port:
        The cluster router's address.
    ring_ttl_seconds:
        How long a fetched ring is trusted before it is re-fetched.
    **client_options:
        Forwarded to every underlying :class:`CaladriusClient`
        (timeouts, retry schedule, the clock its back-off and ring TTL
        are measured on).  ``retries`` is
        the budget of a router fallback — the router's 503 +
        ``Retry-After`` while an owner is down, restarting or promoting
        is retried like any other 503; direct shard calls are always
        single-shot.
    """

    def __init__(
        self,
        host: str,
        port: int,
        ring_ttl_seconds: float = 5.0,
        **client_options: Any,
    ) -> None:
        self.router = CaladriusClient(host, port, **client_options)
        self.ring_ttl_seconds = ring_ttl_seconds
        self._lock = threading.Lock()
        self._ring: HashRing | None = None
        self._addresses: dict[int, tuple[str, int] | None] = {}
        self._epochs: dict[int, int] = {}
        self._version = -1
        self._fetched_at = 0.0
        self._shard_clients = ShardClients(**client_options)
        self.direct_calls = 0
        self.router_fallbacks = 0
        self.fenced_writes = 0

    # ------------------------------------------------------------------
    # Ring management
    # ------------------------------------------------------------------
    def refresh_ring(self) -> dict[str, Any]:
        """Fetch the ring from the router and rebuild routing state."""
        payload = self.router._request("GET", "/cluster/ring")
        with self._lock:
            self._ring = HashRing(
                [int(s) for s in payload["shards"]],
                int(payload["virtual_nodes"]),
            )
            self._version = int(payload["version"])
            self._addresses = {}
            for shard_str, address in payload["addresses"].items():
                if address:
                    host, _, port = address.rpartition(":")
                    self._addresses[int(shard_str)] = (host, int(port))
                else:
                    self._addresses[int(shard_str)] = None
            self._epochs = {
                int(shard_str): int(epoch)
                for shard_str, epoch in (payload.get("epochs") or {}).items()
            }
            self._fetched_at = self.router.clock.monotonic()
        return payload

    def _routing(
        self,
    ) -> tuple[HashRing, dict[int, tuple[str, int] | None], dict[int, int]]:
        with self._lock:
            fresh = (
                self._ring is not None
                and self.router.clock.monotonic() - self._fetched_at
                < self.ring_ttl_seconds
            )
            if fresh:
                return (  # type: ignore[return-value]
                    self._ring,
                    dict(self._addresses),
                    dict(self._epochs),
                )
        self.refresh_ring()
        with self._lock:
            assert self._ring is not None
            return self._ring, dict(self._addresses), dict(self._epochs)

    # ------------------------------------------------------------------
    # Topology-keyed dispatch
    # ------------------------------------------------------------------
    def _call(
        self,
        key: str,
        operation: str,
        *args: Any,
        stamp_epoch: bool = False,
        **kwargs: Any,
    ):
        """Run ``operation`` on the shard that owns ``key``."""
        ring, addresses, epochs = self._routing()
        shard_id = ring.shard_for(key)
        return self._to_owner(
            shard_id,
            addresses.get(shard_id),
            epochs.get(shard_id) if stamp_epoch else None,
            operation,
            *args,
            **kwargs,
        )

    def _to_owner(
        self,
        shard_id: int,
        address: tuple[str, int] | None,
        epoch: int | None,
        operation: str,
        *args: Any,
        **kwargs: Any,
    ):
        """Try the owning shard directly; fall back to the router once.

        ``operation`` names a :class:`CaladriusClient` method.  With an
        ``epoch`` the direct attempt carries it, so a superseded worker
        answers a fencing 409 — treated like any other routing failure:
        refresh and let the router (which stamps the *current* epoch)
        arbitrate.
        """
        if address is not None:
            client = self._shard_clients.get(shard_id, address)
            direct_kwargs = {**kwargs, "epoch": epoch} if epoch else kwargs
            try:
                result = getattr(client, operation)(*args, **direct_kwargs)
                self.direct_calls += 1
                return result
            except ApiError as exc:
                fenced = exc.status == 409 and bool(
                    (exc.payload or {}).get("fenced")
                )
                if fenced:
                    self.fenced_writes += 1
                elif exc.status not in (502, 503, 504):
                    raise  # a real answer (400/403/404/429): not routing
            except OSError:
                pass
        # The shard is down, restarting, fenced, or the ring moved: let
        # the router arbitrate, and refetch the ring for the next call.
        # Waiting out the owner's recovery is the router client's retry
        # loop; nothing here repeats the call.
        self.router_fallbacks += 1
        with self._lock:
            self._fetched_at = 0.0
        return getattr(self.router, operation)(*args, **kwargs)

    def write_metrics(
        self,
        name: str,
        samples: list[tuple[int, float]] | list[list[float]],
        tags: dict[str, str] | None = None,
    ) -> int:
        return self._call(
            routing_key(name, tags), "write_metrics", name, samples, tags,
            stamp_epoch=True,
        )

    def write_batch(self, entries: Iterable[tuple]) -> BatchAck:
        """Split a mixed-topology batch by ring owner and fan out.

        ``entries`` is ``(name, timestamp, value)`` or
        ``(name, timestamp, value, tags)`` per sample.  Each sample is
        framed once; frames are grouped by the owning shard, each
        sub-batch is sent concurrently straight to its owner stamped
        with that shard's epoch, and per-shard acks are merged with
        frame indexes rebased onto the original batch.  A sub-batch
        that is fenced (409) or finds its shard down falls back through
        the router; if even that fails, its frames land in
        :attr:`BatchAck.refused` — one shard's trouble never poisons
        the others' acks.
        """
        frames: list[tuple[str, bytes]] = []
        for entry in entries:
            if len(entry) == 3:
                name, timestamp, value = entry
                tags = None
            else:
                name, timestamp, value, tags = entry
            frames.append(
                (
                    routing_key(name, tags),
                    encode_frame(name, timestamp, value, tags),
                )
            )
        return self._write_batch_frames(frames)

    def write_batch_raw(
        self, raw: bytes, epoch: int | None = None
    ) -> BatchAck:
        """Route pre-encoded frames (the :class:`BatchWriter` target).

        ``epoch`` is accepted for interface compatibility and ignored:
        cluster routing stamps each sub-batch with its owning shard's
        current epoch from the ring.
        """
        del epoch
        return self._write_batch_frames(keyed_frames(raw))

    def _write_batch_frames(
        self, frames: list[tuple[str, bytes]]
    ) -> BatchAck:
        if not frames:
            return BatchAck()
        ring, addresses, epochs = self._routing()
        groups = split_by_owner(frames, ring.shard_for)

        def send(shard_id: int) -> tuple[int, dict[str, Any]]:
            try:
                ack = self._to_owner(
                    shard_id,
                    addresses.get(shard_id),
                    epochs.get(shard_id),
                    "write_batch_raw",
                    groups[shard_id][1],
                )
            except ApiError as exc:
                # Surfaced per sub-batch in `refused`, never raised:
                # the other shards' acks must stand.
                return exc.status, {"error": str(exc), **exc.payload}
            return 200, vars(ack)

        if len(groups) == 1:
            outcomes = {shard_id: send(shard_id) for shard_id in groups}
        else:
            with ThreadPoolExecutor(
                max_workers=min(8, len(groups)),
                thread_name_prefix="cluster-batch",
            ) as pool:
                outcomes = dict(zip(groups, pool.map(send, groups)))
        return BatchAck.from_payload(
            merge_owner_acks(len(frames), groups, outcomes)
        )

    def read_metrics(
        self,
        name: str,
        tags: dict[str, str] | None = None,
        allow_stale: bool = False,
    ) -> list[dict[str, Any]]:
        """Read series back from their owner.

        ``allow_stale`` is harmless on the direct attempt (a serving
        primary is never stale) and is what lets the router answer the
        fallback from the owner's follower during a promotion window.
        """
        return self._call(
            routing_key(name, tags), "read_metrics", name, tags,
            allow_stale=allow_stale,
        )

    def traffic(self, topology: str, **kwargs: Any) -> dict[str, Any]:
        return self._call(topology, "traffic", topology, **kwargs)

    def performance(self, topology: str, **kwargs: Any) -> dict[str, Any]:
        return self._call(topology, "performance", topology, **kwargs)

    def plan_sweep(
        self, topology: str, *args: Any, **kwargs: Any
    ) -> dict[str, Any]:
        return self._call(topology, "plan_sweep", topology, *args, **kwargs)

    def logical_plan(self, topology: str) -> dict[str, Any]:
        return self._call(topology, "logical_plan", topology)

    def packing_plan(self, topology: str) -> dict[str, Any]:
        return self._call(topology, "packing_plan", topology)

    # ------------------------------------------------------------------
    # Fleet-wide calls (always through the router)
    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        return self.router.healthz()

    def wait_ready(self, timeout: float = 30.0) -> dict[str, Any]:
        return self.router.wait_ready(timeout=timeout)

    def serving_stats(self) -> dict[str, Any]:
        return self.router.serving_stats()

    def topologies(self) -> list[str]:
        return self.router.topologies()

    def cluster_stats(self) -> dict[str, Any]:
        return self.router._request("GET", "/cluster/stats")

    def resize(self, shards: int) -> dict[str, Any]:
        return self.router._request(
            "POST", "/cluster/resize", body={"shards": shards}
        )

    def close(self) -> None:
        self._shard_clients.close()
        self.router.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
