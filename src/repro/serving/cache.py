"""The serving layer's one table of answers: LRU bytes, TTL, pending.

An entry is *done* or *pending*.  A done entry holds a serialized
response payload (``bytes``), so the accounting unit is exactly what a
cache hit saves the service from recomputing and re-encoding, and a hit
is guaranteed byte-identical to the original response.  A pending entry
(:class:`Pending`) is an answer one asker is computing: the askers that
find it wait for that answer instead of computing it again, so N
concurrent identical requests cost one computation.

Keys are ``(descriptor, plan revision, data_version)`` tuples
(:meth:`repro.serving.fingerprint.RequestDescriptor.cache_key`), hashed
by the table itself.  A pending entry therefore binds the input versions
its leader read when it started: an asker who arrives after a write
computes another key and never joins it.  The per-topology index makes
invalidation on metrics writes or plan changes O(entries-per-topology),
and it drops pending entries too: their answers still reach their
waiters, but are not stored.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass

from repro.clock import SYSTEM_CLOCK, Clock
from repro.durability.deadline import DeadlineExceeded
from repro.errors import ConfigError
from repro.telemetry import Telemetry

__all__ = ["Pending", "ResultCache"]


@dataclass
class _Entry:
    payload: bytes
    topology: str
    expires_at: float


@dataclass
class Pending:
    """An answer one asker (its *leader*) is computing.

    The leader makes it and passes it to :meth:`ResultCache.get`, which
    installs it on a miss — and only then gives it the ``done`` event —
    then resolves it with :meth:`ResultCache.put` or
    :meth:`ResultCache.fail`.  An asker that finds it installed waits
    (:meth:`ResultCache.join`) for ``payload``, or for ``error``, what
    the computation raised.  It holds no budget bytes and never expires.
    """

    topology: str
    done: threading.Event | None = None
    payload: bytes | None = None
    error: BaseException | None = None
    expires_at = math.inf


class ResultCache:
    """LRU + TTL cache from request keys to payload bytes, and to the
    answers being computed for them.

    Parameters
    ----------
    max_bytes:
        Total payload budget; least-recently-used done entries are
        evicted when an insert would exceed it.  A payload larger than
        the whole budget is simply not cached.
    ttl_seconds:
        Done-entry lifetime; expired entries miss on read and are swept
        before an insert evicts a live entry for room.  ``None``
        disables expiry.
    clock:
        What entry lifetimes and waits for a pending answer are
        measured on.
    telemetry:
        Where the ``serving.cache.*`` counters and gauges are kept, and
        ``serving.singleflight.led`` / ``.coalesced``: the askers that
        installed a pending entry and those that found one.
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
        self._entries: OrderedDict[Hashable, _Entry | Pending] = OrderedDict()
        self._by_topology: dict[str, set[Hashable]] = {}
        self._bytes = 0
        self.telemetry = telemetry = telemetry or Telemetry(clock)
        telemetry.gauges("serving.cache.", lambda: {
            "entries": len(self._entries), "bytes": self._bytes,
            "max_bytes": self.max_bytes})

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(
        self, key: Hashable, count_miss: bool = True, lead: Pending | None = None
    ) -> bytes | Pending | None:
        """The stored payload, or else what the caller should do.

        With ``count_miss=False`` anything but a hit is ``None`` at once
        and leaves no trace (no counter, no expiry drop, no waiting): the
        caller will ask again through the counted path.  Counted, a miss
        is ``None`` — or, given ``lead``, installs it and returns it: the
        caller computes the answer.  A key another asker is computing
        returns that asker's :class:`Pending` to :meth:`join`.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry.__class__ is _Entry and entry.expires_at > self._clock.monotonic():
                self._entries.move_to_end(key)
                self.telemetry.count("serving.cache.hits")
                return entry.payload
            if not count_miss:
                return None
            self.telemetry.count("serving.cache.misses")
            if entry.__class__ is Pending:
                self.telemetry.count("serving.singleflight.coalesced")
                return entry
            if entry is not None:
                self._drop_locked(key)
                self.telemetry.count("serving.cache.expirations")
            if lead is not None:
                lead.done = threading.Event()
                self._entries[key] = lead
                self._by_topology.setdefault(lead.topology, set()).add(key)
                self.telemetry.count("serving.singleflight.led")
            return lead

    def join(self, pending: Pending, timeout: float | None) -> bytes:
        """Wait for the payload ``pending``'s leader resolves it with.

        Raises what the leader's computation raised, or
        :class:`~repro.durability.deadline.DeadlineExceeded` (504) when
        ``timeout`` passes first — the leader computes on regardless.
        """
        if not self._clock.wait(pending.done, timeout):
            raise DeadlineExceeded(0.0)
        if pending.error is not None:
            raise pending.error
        return pending.payload

    def put(
        self, key: Hashable, payload: bytes, topology: str,
        lead: Pending | None = None,
    ) -> bool:
        """Insert a payload; returns whether it was stored.

        It is not when it exceeds the budget, or when another asker's
        pending entry holds ``key``.  With ``lead``, the pending entry
        the caller installed, the payload also resolves it: its waiters
        get the payload whether or not it is stored, and it is stored
        only while ``lead`` still holds ``key`` — an invalidation that
        dropped it made the answer's inputs stale.
        """
        size = len(payload)
        now = self._clock.monotonic()
        with self._lock:
            held = self._entries.get(key)
            stored = size <= self.max_bytes and (
                held is lead if lead is not None else held.__class__ is not Pending
            )
            if held is not None and (stored or held is lead):
                self._drop_locked(key)
            if stored:
                if self._bytes + size > self.max_bytes:
                    # Only now walk the table: the dead make room first.
                    self._sweep_expired_locked(now)
                while self._bytes + size > self.max_bytes:
                    self._drop_locked(next(
                        k for k, e in self._entries.items() if e.__class__ is _Entry
                    ))
                    self.telemetry.count("serving.cache.evictions")
                expires = now + self.ttl_seconds if self.ttl_seconds else math.inf
                self._entries[key] = _Entry(payload, topology, expires)
                self._by_topology.setdefault(topology, set()).add(key)
                self._bytes += size
        if lead is not None:
            lead.payload = payload
            lead.done.set()
        return stored

    def fail(self, key: Hashable, lead: Pending, error: BaseException) -> None:
        """Resolve ``lead`` with its computation's error: its waiters
        raise it, nothing is stored, and the next asker computes anew."""
        with self._lock:
            if self._entries.get(key) is lead:
                self._drop_locked(key)
        lead.error = error
        lead.done.set()

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_topology(self, topology: str | None) -> int:
        """Drop every entry for one topology (``None`` = all of them).

        Keys that carry the input versions already make stale entries
        unreachable; invalidation reclaims their budget immediately
        instead of waiting for LRU pressure or TTL expiry.  A dropped
        pending entry still answers its waiters, but its answer is not
        stored: it may have read the inputs this invalidation changed.
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
        if entry.__class__ is _Entry:
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
