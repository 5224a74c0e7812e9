"""The serving facade: one table of answers → scheduler → models.

:class:`ServingLayer` is what :class:`~repro.api.app.CaladriusApp`
calls instead of invoking models directly.  One request flows:

1. **key** — the tuple ``(descriptor, plan revision, data_version)``:
   the request's identity and the two versions of its inputs, read from
   the tracker and the store — no digest, the table hashes it;
2. **lookup** — one look into the :class:`~repro.serving.cache.ResultCache`
   answers a hit with the stored payload (byte-identical to the original
   response); an asker who finds the answer *pending* waits for the
   asker computing it and shares its result; a miss installs a pending
   entry and leads;
3. **scheduler** — the leader's computation, the app's one answer
   function applied to the descriptor, passes priority admission
   control (shedding 429 + ``Retry-After`` under overload);
4. **store** — the leader's JSON-serialized result resolves its pending
   entry: stored for next time, and handed to its waiters.

Invalidation is event-driven: the layer subscribes to
:class:`~repro.timeseries.store.MetricsStore` writes and
:class:`~repro.heron.tracker.TopologyTracker` plan changes, dropping the
touched topology's entries — done and pending — and queueing its
popular queries for warm recomputation: the same descriptors asked
again through the same answer function and table.  Because keys also
carry the revision and data version, even an entry that escaped
eviction can never be addressed again — eviction is a space
optimisation, not a correctness requirement.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Callable
from typing import Any

from repro.clock import SYSTEM_CLOCK, Clock
from repro.errors import ReproError, TopologyError
from repro.heron.tracker import TopologyTracker
from repro.serving.cache import Pending, ResultCache
from repro.serving.fingerprint import RequestDescriptor
from repro.serving.precompute import WarmCachePrecomputer
from repro.serving.scheduler import (
    INTERACTIVE, PRECOMPUTE, PriorityScheduler, mean_compute_seconds,
)
from repro.telemetry import Snapshot, Telemetry, readings
from repro.timeseries.store import MetricsStore

__all__ = ["ServingLayer", "serving_view"]


class ServingLayer:
    """Cached, admission-controlled serving for modelling requests: one
    answer function behind one table of answers.

    Parameters
    ----------
    tracker / store:
        The shared metadata and metrics sources; both are subscribed to
        for invalidation.
    answer:
        The computation behind every answer: a descriptor to its result
        document.  The re-warm replays a descriptor through it, as a
        fresh ask does.
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
        The registry the layer and its cache, scheduler and precomputer
        count into (``serving.*``).
    """

    def __init__(
        self,
        tracker: TopologyTracker,
        store: MetricsStore,
        answer: Callable[[RequestDescriptor], dict[str, Any]],
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
        self.scheduler = PriorityScheduler(max_concurrent, max_queue, clock, telemetry)
        self._clock = clock
        self._answer = answer
        self.precomputer = WarmCachePrecomputer(precompute_top_k, telemetry=telemetry)
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
        priority: int = INTERACTIVE,
        timeout: float | None = None,
        record: bool = True,
    ) -> dict[str, Any]:
        """:meth:`payload`, decoded: what an in-process caller takes.

        The returned dict is decoded from the cached JSON payload, so
        every caller — leader, coalesced waiter, later cache hit —
        receives an identical response.
        """
        return json.loads(self.payload(descriptor, priority, timeout, record))

    def payload(
        self,
        descriptor: RequestDescriptor,
        priority: int = INTERACTIVE,
        timeout: float | None = None,
        record: bool = True,
    ) -> bytes:
        """Serve one request through the table of answers and admission.

        The answer function runs at most once per distinct input state no
        matter how many concurrent callers present the same descriptor.
        What comes back is the stored response bytes — the leader's encoding
        of its result, handed to its waiters and later hits alike —
        which the HTTP listener writes as they are.  ``timeout`` bounds
        the wait for a scheduler slot, or for another asker's answer.
        """
        key = self._key(descriptor)
        if record:
            self.telemetry.count("serving.requests")
        lead = Pending(descriptor.topology)
        payload = self.cache.get(key, lead=lead)
        if payload is lead:
            payload = self._compute_and_store(
                key, lead, descriptor, priority, timeout
            )
        elif payload.__class__ is Pending:
            payload = self.cache.join(payload, timeout)
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
        book when the request is run again where it may wait.  The key
        is two version reads and a tuple: nothing is serialised or
        digested to find the entry.
        """
        payload = self.cache.get(self._key(descriptor), count_miss=False)
        if payload is not None:
            self.telemetry.count("serving.requests")
            self.telemetry.count("serving.hits")
            self.precomputer.record(descriptor)
        return payload

    def _compute_and_store(
        self,
        key: tuple,
        lead: Pending,
        descriptor: RequestDescriptor,
        priority: int,
        timeout: float | None,
    ) -> bytes:
        """Compute the answer ``lead`` stands for and resolve it."""
        try:
            result = self.scheduler.run(
                lambda: self._answer(descriptor), priority, timeout
            )
            self.telemetry.count("serving.computations")
            # dumps(loads(payload)) == payload: what the HTTP tier would
            # encode from execute()'s dict and what it sends from
            # payload() or cached() are the same bytes.
            payload = json.dumps(result).encode("utf8")
        except BaseException as exc:
            self.cache.fail(key, lead, exc)
            raise
        self.cache.put(key, payload, lead.topology, lead)
        return payload

    def _key(self, descriptor: RequestDescriptor) -> tuple:
        try:
            revision = self.tracker.revision_of(descriptor.topology)
        except TopologyError:
            revision = -1  # unknown topologies 404 in the handler anyway
        return descriptor.cache_key(
            revision, self.store.data_version(descriptor.topology)
        )

    # ------------------------------------------------------------------
    # Invalidation + warm precompute
    # ------------------------------------------------------------------
    def _invalidate(self, topology: str | None) -> None:
        """A store write or a plan change: the topology's answers are
        stale, and the re-warm loop has work."""
        self.cache.invalidate_topology(topology)
        self.precomputer.invalidate(topology)
        self._dirty.set()

    def precompute_now(self) -> int:
        """Recompute pending popular queries; returns how many succeeded.

        Each is an ordinary ask through the answer function and the table,
        at PRECOMPUTE priority, so a busy interactive queue starves
        precomputation (by design), and sheds silently under overload —
        warm-cache work is best-effort.  The stored bytes are not decoded:
        no one reads them here.
        """
        done = 0
        for descriptor in self.precomputer.take_pending():
            try:
                self.payload(descriptor, PRECOMPUTE, record=False)
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
