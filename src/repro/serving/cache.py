"""A thread-safe LRU result cache bounded by bytes, with TTL expiry.

Entries are serialized response payloads (``bytes``), so the accounting
unit is exactly what a cache hit saves the service from recomputing and
re-encoding, and a hit is guaranteed byte-identical to the original
response.  Keys are ``(descriptor, plan revision, data_version)``
tuples (:meth:`repro.serving.fingerprint.RequestDescriptor.cache_key`),
hashed by the table itself; the per-topology index makes invalidation on
metrics writes or plan changes O(entries-per-topology).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass

from repro.clock import SYSTEM_CLOCK, Clock
from repro.errors import ConfigError
from repro.telemetry import Telemetry

__all__ = ["ResultCache"]


@dataclass
class _Entry:
    payload: bytes
    topology: str
    expires_at: float


class ResultCache:
    """LRU + TTL cache from request keys to payload bytes.

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
    telemetry:
        Where the ``serving.cache.*`` counters and gauges are kept.
    """

    def __init__(
        self,
        max_bytes: int,
        ttl_seconds: float | None = None,
        clock: Clock = SYSTEM_CLOCK,
        telemetry: Telemetry | None = None,
    ) -> None:
        if max_bytes <= 0:
            raise ConfigError("cache max_bytes must be positive")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ConfigError("cache ttl_seconds must be positive or None")
        self.max_bytes = int(max_bytes)
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._by_topology: dict[str, set[Hashable]] = {}
        self._bytes = 0
        self.telemetry = telemetry = telemetry or Telemetry(clock)
        telemetry.gauges("serving.cache.", lambda: {
            "entries": len(self._entries), "bytes": self._bytes,
            "max_bytes": self.max_bytes})

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, key: Hashable, count_miss: bool = True) -> bytes | None:
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
                        self.telemetry.count("serving.cache.expirations")
                    self.telemetry.count("serving.cache.misses")
                return None
            self._entries.move_to_end(key)
            self.telemetry.count("serving.cache.hits")
            return entry.payload

    def put(self, key: Hashable, payload: bytes, topology: str) -> bool:
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
                self.telemetry.count("serving.cache.evictions")
            self._entries[key] = _Entry(payload, topology, expires)
            self._by_topology.setdefault(topology, set()).add(key)
            self._bytes += size
            return True

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_topology(self, topology: str | None) -> int:
        """Drop every entry for one topology (``None`` = all of them).

        Keys that carry the input versions already make stale entries
        unreachable; invalidation reclaims their budget immediately
        instead of waiting for LRU pressure or TTL expiry.
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
            self.telemetry.count("serving.cache.invalidations", dropped)
            return dropped

    def _drop_locked(self, key: Hashable) -> None:
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
            self.telemetry.count("serving.cache.expirations")
