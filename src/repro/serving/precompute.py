"""Warm-cache precomputation: recompute popular queries on invalidation.

Phoebe-style anticipation for the serving layer: the queries a service
answered recently are the queries it will be asked again, so when a
metrics write or plan change invalidates their cached answers, the
popular ones are queued for recomputation at PRECOMPUTE priority.  The
interactive path then keeps hitting a warm cache even while the inputs
churn, instead of paying a cold model evaluation per invalidation.

The tracker is deliberately passive: :meth:`record` and
:meth:`invalidate` are cheap bookkeeping on the request/write paths, and
the actual recomputation happens when the serving layer drains
:meth:`take_pending` — synchronously in tests, from a background thread
in a live server.
"""

from __future__ import annotations

import threading

from repro.errors import ConfigError
from repro.serving.fingerprint import RequestDescriptor
from repro.telemetry import Telemetry

__all__ = ["WarmCachePrecomputer"]


class _Popularity:
    __slots__ = ("count", "last_seq")

    def __init__(self) -> None:
        self.count = 0
        self.last_seq = 0


class WarmCachePrecomputer:
    """Track query popularity; queue the hot ones when inputs change.

    Parameters
    ----------
    top_k:
        How many of a topology's most popular descriptors to recompute
        per invalidation.  The popularity table holds ``8 * top_k``
        descriptors; the least-recently-seen of those seen once are
        pruned past it.
    telemetry:
        Where the ``serving.precompute.*`` counters and gauges are kept.
    """

    def __init__(
        self,
        top_k: int = 8,
        telemetry: Telemetry | None = None,
    ) -> None:
        if top_k < 1:
            raise ConfigError("precompute top_k must be >= 1")
        self.top_k = top_k
        self.max_tracked = 8 * top_k
        self._lock = threading.Lock()
        self._popular: dict[RequestDescriptor, _Popularity] = {}
        # The descriptors seen exactly once, oldest first: the eviction
        # order, kept as requests arrive instead of searched for.
        self._seen_once: dict[RequestDescriptor, None] = {}
        self._pending: dict[RequestDescriptor, None] = {}  # ordered set
        self._seq = 0
        self.telemetry = telemetry = telemetry or Telemetry()
        telemetry.gauges("serving.precompute.", lambda: {
            "tracked": len(self._popular), "pending": len(self._pending)})

    # ------------------------------------------------------------------
    # Request-path bookkeeping
    # ------------------------------------------------------------------
    def record(self, descriptor: RequestDescriptor) -> None:
        """Note one served request (any outcome source: cold or cached)."""
        with self._lock:
            self._seq += 1
            entry = self._popular.get(descriptor)
            if entry is None:
                entry = self._popular[descriptor] = _Popularity()
                self._seen_once[descriptor] = None
            else:
                self._seen_once.pop(descriptor, None)
            entry.count += 1
            entry.last_seq = self._seq
            self.telemetry.count("serving.precompute.recorded")
            if len(self._popular) > self.max_tracked:
                # Coldest is lowest (count, last_seq).  Only a new
                # descriptor grows the table, so one seen once exists.
                coldest = next(iter(self._seen_once))
                del self._seen_once[coldest]
                del self._popular[coldest]

    # ------------------------------------------------------------------
    # Invalidation-path bookkeeping
    # ------------------------------------------------------------------
    def invalidate(self, topology: str | None) -> int:
        """Queue the top-k popular descriptors for one topology (or all)."""
        with self._lock:
            matching = [
                d
                for d in self._popular
                if topology is None or d.topology == topology
            ]
            matching.sort(
                key=lambda d: (-self._popular[d].count, -self._popular[d].last_seq)
            )
            queued = 0
            for descriptor in matching[: self.top_k]:
                if descriptor not in self._pending:
                    self._pending[descriptor] = None
                    queued += 1
            self.telemetry.count("serving.precompute.queued", queued)
            return queued

    def take_pending(self) -> list[RequestDescriptor]:
        """Drain the pending set (oldest first) for recomputation."""
        with self._lock:
            pending = list(self._pending)
            self._pending.clear()
            return pending
