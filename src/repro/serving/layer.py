"""The serving facade: cache → single-flight → scheduler → models.

:class:`ServingLayer` is what :class:`~repro.api.app.CaladriusApp`
calls instead of invoking models directly.  One request flows:

1. **fingerprint** — the descriptor plus the tracker's plan revision and
   the store's metrics digest form a content-addressed key;
2. **cache** — a hit returns the stored payload immediately
   (byte-identical to the original response);
3. **single-flight** — concurrent misses on the same key elect one
   leader; the rest wait and share its result;
4. **scheduler** — the leader's computation passes priority admission
   control (shedding 429 + ``Retry-After`` under overload);
5. **store** — the JSON-serialized result is cached for next time.

Invalidation is event-driven: the layer subscribes to
:class:`~repro.timeseries.store.MetricsStore` writes and
:class:`~repro.heron.tracker.TopologyTracker` plan changes, evicting the
touched topology's entries and queueing its popular queries for warm
recomputation.  Because keys also embed the revision/digest, even an
entry that escaped eviction can never be addressed again — eviction is
a space optimisation, not a correctness requirement.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Callable
from typing import Any

from repro.clock import SYSTEM_CLOCK, Clock
from repro.errors import ReproError, TopologyError
from repro.heron.tracker import TopologyTracker
from repro.serving.cache import ResultCache
from repro.serving.fingerprint import RequestDescriptor
from repro.serving.precompute import WarmCachePrecomputer
from repro.serving.scheduler import (
    INTERACTIVE, PRECOMPUTE, PriorityScheduler, mean_compute_seconds,
)
from repro.serving.singleflight import SingleFlight
from repro.telemetry import Snapshot, Telemetry, readings
from repro.timeseries.store import MetricsStore

__all__ = ["ServingLayer", "serving_view"]


class ServingLayer:
    """Content-addressed serving for modelling requests.

    Parameters
    ----------
    tracker / store:
        The shared metadata and metrics sources; both are subscribed to
        for invalidation.
    cache_bytes:
        Result-cache budget in bytes.
    ttl_seconds:
        Result-cache entry lifetime (``None`` = no expiry).
    max_concurrent / max_queue:
        Admission-control bounds (see :class:`PriorityScheduler`).
    precompute_top_k:
        Popular queries recomputed per invalidation.
    clock:
        What cache lifetimes, slot waits and the re-warm cadence are
        measured on.
    telemetry:
        The registry the layer and its cache, single-flight, scheduler
        and precomputer count into (``serving.*``).
    """

    def __init__(
        self,
        tracker: TopologyTracker,
        store: MetricsStore,
        cache_bytes: int = 64 * 1024 * 1024,
        ttl_seconds: float | None = 300.0,
        max_concurrent: int = 4,
        max_queue: int = 32,
        precompute_top_k: int = 8,
        clock: Clock = SYSTEM_CLOCK,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.tracker = tracker
        self.store = store
        self.telemetry = telemetry = telemetry or Telemetry(clock)
        telemetry.gauges("serving.", lambda: {"enabled": 1})
        self.cache = ResultCache(cache_bytes, ttl_seconds, clock, telemetry)
        self.flight = SingleFlight(telemetry)
        self.scheduler = PriorityScheduler(max_concurrent, max_queue, clock, telemetry)
        self._clock = clock
        self.precomputer = WarmCachePrecomputer(precompute_top_k, telemetry=telemetry)
        self._recompute: Callable[[RequestDescriptor], dict[str, Any]] | None = None
        self._dirty = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        store.add_invalidation_listener(self._invalidate)
        tracker.add_listener(self._invalidate)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def execute(
        self,
        descriptor: RequestDescriptor,
        compute: Callable[[], dict[str, Any]],
        priority: int = INTERACTIVE,
        timeout: float | None = None,
        record: bool = True,
    ) -> dict[str, Any]:
        """:meth:`payload`, decoded: what an in-process caller takes.

        The returned dict is decoded from the cached JSON payload, so
        every caller — leader, coalesced waiter, later cache hit —
        receives an identical response.
        """
        return json.loads(
            self.payload(descriptor, compute, priority, timeout, record)
        )

    def payload(
        self,
        descriptor: RequestDescriptor,
        compute: Callable[[], dict[str, Any]],
        priority: int = INTERACTIVE,
        timeout: float | None = None,
        record: bool = True,
    ) -> bytes:
        """Serve one request through cache, coalescing and admission.

        ``compute`` runs at most once per distinct input state no matter
        how many concurrent callers present the same descriptor.  What
        comes back is the stored response bytes — the leader's encoding
        of its result, handed to coalesced waiters and later hits alike —
        which the HTTP listener writes as they are.
        """
        key = self._key(descriptor)
        if record:
            self.telemetry.count("serving.requests")
        payload = self.cache.get(key)
        if payload is None:
            payload, _ = self.flight.do(
                key, lambda: self._compute_and_store(key, descriptor, compute,
                                                     priority, timeout)
            )
        elif record:
            self.telemetry.count("serving.hits")
        if record:
            self.precomputer.record(descriptor)
        return payload

    def cached(self, descriptor: RequestDescriptor) -> bytes | None:
        """The stored response bytes when :meth:`execute` would hit, else
        ``None`` with no counter moved.

        Blocks on nothing but O(1) lock holds, so the HTTP listener may
        call it on its event-loop thread; a hit is booked exactly as
        :meth:`execute` books one, a miss is left for :meth:`execute` to
        book when the request is run again where it may wait.
        """
        payload = self.cache.get(self._key(descriptor), count_miss=False)
        if payload is not None:
            self.telemetry.count("serving.requests")
            self.telemetry.count("serving.hits")
            self.precomputer.record(descriptor)
        return payload

    def _compute_and_store(
        self,
        key: str,
        descriptor: RequestDescriptor,
        compute: Callable[[], dict[str, Any]],
        priority: int,
        timeout: float | None,
    ) -> bytes:
        # A racing leader may have filled the cache between our miss and
        # winning the flight; re-check before paying for a computation.
        payload = self.cache.get(key)
        if payload is not None:
            return payload
        result = self.scheduler.run(compute, priority, timeout)
        self.telemetry.count("serving.computations")
        # dumps(loads(payload)) == payload: what the HTTP tier would
        # encode from execute()'s dict and what it sends from payload()
        # or cached() are the same bytes.
        payload = json.dumps(result).encode("utf8")
        self.cache.put(key, payload, descriptor.topology)
        return payload

    def _key(self, descriptor: RequestDescriptor) -> str:
        try:
            revision = self.tracker.revision_of(descriptor.topology)
        except TopologyError:
            revision = -1  # unknown topologies 404 in the handler anyway
        digest = self.store.data_version(descriptor.topology)
        return descriptor.cache_key(revision, digest)

    # ------------------------------------------------------------------
    # Invalidation + warm precompute
    # ------------------------------------------------------------------
    def _invalidate(self, topology: str | None) -> None:
        """A store write or a plan change: the topology's answers are
        stale, and the re-warm loop has work."""
        self.cache.invalidate_topology(topology)
        self.precomputer.invalidate(topology)
        self._dirty.set()

    def set_recompute(
        self, fn: Callable[[RequestDescriptor], dict[str, Any]]
    ) -> None:
        """Register the callback that replays a descriptor's computation."""
        self._recompute = fn

    def precompute_now(self) -> int:
        """Recompute pending popular queries; returns how many succeeded.

        Runs at PRECOMPUTE priority, so a busy interactive queue starves
        precomputation (by design), and sheds silently under overload —
        warm-cache work is best-effort.
        """
        if self._recompute is None:
            return 0
        done = 0
        for descriptor in self.precomputer.take_pending():
            try:
                self.execute(
                    descriptor,
                    lambda d=descriptor: self._recompute(d),
                    priority=PRECOMPUTE,
                    record=False,
                )
                done += 1
            except ReproError:
                self.telemetry.count("serving.precompute_failures")
        self.telemetry.count("serving.precomputed", done)
        return done

    def start(self, interval_seconds: float = 0.5) -> None:
        """Run :meth:`precompute_now` on a daemon thread after writes."""
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                self._clock.wait(self._dirty, interval_seconds)
                if self._stop.is_set():
                    return
                self._dirty.clear()
                self.precompute_now()

        self._thread = threading.Thread(
            target=loop, name="caladrius-precompute", daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        """Unsubscribe from invalidation sources and stop precompute."""
        self._stop.set()
        self._dirty.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.store.remove_invalidation_listener(self._invalidate)
        self.tracker.remove_listener(self._invalidate)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """The layer's block of ``/serving/stats`` (:func:`serving_view`)."""
        return serving_view(self.telemetry.snapshot("serving."))


def serving_view(snapshot: Snapshot) -> dict[str, Any]:
    """The serving layer's block of ``/serving/stats``, read from one
    app's snapshot or a fleet's merged one; ``{"enabled": False}`` when
    no layer counted into it."""
    if not snapshot["gauges"].get("serving.enabled"):
        return {"enabled": False}
    layer = readings(snapshot, "serving.", "requests", "hits", "computations",
                     "precomputed", "precompute_failures")
    compute = snapshot["histograms"].get("serving.compute", {"count": 0, "sum": 0})
    scheduler = {
        "executed": compute["count"],
        **readings(snapshot, "serving.scheduler.", "shed", "queue_depth",
                   "running", "peak_queue"),
        "avg_compute_seconds": round(
            mean_compute_seconds(compute["count"], compute["sum"]), 6
        ),
    }
    flight = readings(snapshot, "serving.singleflight.", "led", "coalesced")
    requests, hits = layer["requests"], layer["hits"]
    return {
        "enabled": True,
        **layer,
        "hit_rate": (hits / requests) if requests else 0.0,
        "coalesced": flight["coalesced"],
        "shed": scheduler["shed"],
        "queue_depth": scheduler["queue_depth"],
        "cache": readings(snapshot, "serving.cache.", "entries", "bytes",
                          "max_bytes", "hits", "misses", "evictions",
                          "expirations", "invalidations"),
        "scheduler": scheduler,
        "singleflight": flight,
        "precompute": readings(snapshot, "serving.precompute.", "tracked",
                               "pending", "recorded", "queued"),
    }
