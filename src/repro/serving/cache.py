"""A thread-safe LRU result cache bounded by bytes, with TTL expiry.

Entries are serialized response payloads (``bytes``), so the accounting
unit is exactly what a cache hit saves the service from recomputing and
re-encoding, and a hit is guaranteed byte-identical to the original
response.  Keys are content-addressed fingerprints
(:mod:`repro.serving.fingerprint`); the per-topology index makes
invalidation on metrics writes or plan changes O(entries-per-topology).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.clock import SYSTEM_CLOCK, Clock
from repro.errors import ConfigError

__all__ = ["ResultCache"]


@dataclass
class _Entry:
    payload: bytes
    topology: str
    expires_at: float


class ResultCache:
    """LRU + TTL cache from fingerprint keys to payload bytes.

    Parameters
    ----------
    max_bytes:
        Total payload budget; least-recently-used entries are evicted
        when an insert would exceed it.  A payload larger than the whole
        budget is simply not cached.
    ttl_seconds:
        Entry lifetime; expired entries miss on read and are swept
        before an insert evicts a live entry for room.  ``None``
        disables expiry.
    clock:
        What entry lifetimes are measured on.
    """

    def __init__(
        self,
        max_bytes: int,
        ttl_seconds: float | None = None,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        if max_bytes <= 0:
            raise ConfigError("cache max_bytes must be positive")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ConfigError("cache ttl_seconds must be positive or None")
        self.max_bytes = int(max_bytes)
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._by_topology: dict[str, set[str]] = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, key: str, count_miss: bool = True) -> bytes | None:
        """The cached payload, or ``None`` on miss/expiry.

        With ``count_miss=False`` a miss leaves no trace (no counter, no
        expiry drop): the caller will ask again through the counted path.
        """
        with self._lock:
            entry = self._entries.get(key)
            expired = entry is not None and entry.expires_at <= self._clock.monotonic()
            if entry is None or expired:
                if count_miss:
                    if expired:
                        self._drop_locked(key)
                        self.expirations += 1
                    self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.payload

    def put(self, key: str, payload: bytes, topology: str) -> bool:
        """Insert a payload; returns False when it exceeds the budget."""
        size = len(payload)
        if size > self.max_bytes:
            return False
        now = self._clock.monotonic()
        expires = now + self.ttl_seconds if self.ttl_seconds else float("inf")
        with self._lock:
            if key in self._entries:
                self._drop_locked(key)
            if self._bytes + size > self.max_bytes:
                # Only now walk the table: the dead make room first.
                self._sweep_expired_locked(now)
            while self._bytes + size > self.max_bytes:
                oldest = next(iter(self._entries))
                self._drop_locked(oldest)
                self.evictions += 1
            self._entries[key] = _Entry(payload, topology, expires)
            self._by_topology.setdefault(topology, set()).add(key)
            self._bytes += size
            return True

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_topology(self, topology: str | None) -> int:
        """Drop every entry for one topology (``None`` = all of them).

        Content-addressed keys already make stale entries unreachable;
        invalidation reclaims their budget immediately instead of
        waiting for LRU pressure or TTL expiry.
        """
        with self._lock:
            if topology is None:
                dropped = len(self._entries)
                self._entries.clear()
                self._by_topology.clear()
                self._bytes = 0
            else:
                keys = self._by_topology.get(topology)
                if not keys:
                    return 0
                dropped = len(keys)
                for key in list(keys):
                    self._drop_locked(key)
            self.invalidations += dropped
            return dropped

    def _drop_locked(self, key: str) -> None:
        entry = self._entries.pop(key)
        self._bytes -= len(entry.payload)
        keys = self._by_topology.get(entry.topology)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_topology[entry.topology]

    def _sweep_expired_locked(self, now: float) -> None:
        expired = [k for k, e in self._entries.items() if e.expires_at <= now]
        for key in expired:
            self._drop_locked(key)
            self.expirations += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Counters plus current occupancy (for ``/serving/stats``)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "invalidations": self.invalidations,
            }
