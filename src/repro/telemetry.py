"""One stats surface: the counters, gauges, histograms and spans of one app.

Caladrius models the golden signals of the systems it watches (paper
§III-B1); this module is how the service reports its own.  A
:class:`Telemetry` registry holds

- **counters** — integers that only grow, each increment one lock hold;
- **gauges** — a component's reader, called when a snapshot is taken,
  returning its integers by name (cache occupancy, queue depth, breaker
  state), so no component keeps a second copy of what it already knows;
- **histograms** — integer observations in fixed log2 buckets, with
  their count and exact sum;
- **spans** — :meth:`Telemetry.span` times a block on the registry's
  :class:`~repro.clock.Clock` into the histogram of its name, in
  nanoseconds, so a test on a ``ManualClock`` reads exact durations.

Each app (``CaladriusApp``, ``RouterApp``, ``FollowerApp``) owns one
registry and hands it to the components it builds (``telemetry=``, as
``clock=``); a component built alone makes a private one.  There is no
process-wide registry: tests and the cluster simulation run many apps
in one process, and each reports its own.

:meth:`Telemetry.snapshot` is a JSON document.  :func:`merge` adds
snapshots up — counters, gauges and histogram buckets sum — which is how
the router reports its fleet, and :func:`readings` is how a stats view
reads one.  Everything in a snapshot is an integer, so a merge is exact:
associative, commutative, and equal to one registry fed every stream.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from typing import Any

from repro.clock import SYSTEM_CLOCK, Clock

__all__ = ["BUCKET_BOUNDS", "Snapshot", "Telemetry", "merge", "readings"]

#: Bucket ``i < len(BUCKET_BOUNDS)`` counts observations ``v`` with
#: ``BUCKET_BOUNDS[i - 1] <= v < BUCKET_BOUNDS[i]`` (bucket 0 everything
#: below ``BUCKET_BOUNDS[0]``); the one bucket past the end counts
#: ``v >= BUCKET_BOUNDS[-1]``.  As span durations in nanoseconds the
#: bounds run from 1.0 µs (2**10 ns) to 68.7 s (2**36 ns).
_MIN_BITS = 10
BUCKET_BOUNDS: tuple[int, ...] = tuple(2**bits for bits in range(_MIN_BITS, 37))
_LAST = len(BUCKET_BOUNDS)

Snapshot = dict[str, dict[str, Any]]


class Telemetry:
    """Counters, gauges and histograms under one lock.

    ``clock`` is what :meth:`span` times on.
    """

    def __init__(self, clock: Clock = SYSTEM_CLOCK) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._counters: defaultdict[str, int] = defaultdict(int)
        self._gauges: dict[str, Callable[[], dict[str, int]]] = {}
        # name -> [count, sum, *buckets]
        self._histograms: dict[str, list[int]] = {}

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a counter."""
        with self._lock:
            self._counters[name] += n

    def gauges(self, prefix: str, read: Callable[[], dict[str, int]]) -> None:
        """Register ``read``, called per snapshot: each ``name -> value``
        it returns is the gauge ``prefix + name``."""
        with self._lock:
            self._gauges[prefix] = read

    def histogram(self, name: str) -> tuple[int, int]:
        """A histogram's observation count and sum; ``(0, 0)`` before
        its first."""
        with self._lock:
            histogram = self._histograms.get(name)
            return (histogram[0], histogram[1]) if histogram else (0, 0)

    def observe(self, name: str, value: int) -> None:
        """Add one non-negative integer observation to a histogram."""
        index = 2 + min(max(value.bit_length() - _MIN_BITS, 0), _LAST)
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = [0] * (_LAST + 3)
            histogram[0] += 1
            histogram[1] += value
            histogram[index] += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """``with telemetry.span(name):`` — the block's duration, in
        nanoseconds on :attr:`clock`, into histogram ``name``."""
        start = self.clock.monotonic()
        try:
            yield
        finally:
            self.observe(name, round((self.clock.monotonic() - start) * 1e9))

    def snapshot(self, prefix: str = "") -> Snapshot:
        """Every counter, gauge and histogram whose name starts with
        ``prefix``, now, as a JSON document.  ``prefix`` is a component's
        (``"breaker."``) or a wider one: only the gauge readers
        registered under it are called."""
        with self._lock:
            counters = {n: v for n, v in self._counters.items() if n.startswith(prefix)}
            readers = [(p, r) for p, r in self._gauges.items() if p.startswith(prefix)]
            histograms = {
                n: list(h) for n, h in self._histograms.items() if n.startswith(prefix)
            }
        # Read outside the lock: a reader takes its component's lock.
        gauges = {p + n: int(v) for p, read in readers for n, v in read().items()}
        return _document(counters, gauges, histograms)


def merge(snapshots: Iterable[Snapshot]) -> Snapshot:
    """One snapshot summing ``snapshots``: the fleet view of several apps."""
    sums: dict[str, defaultdict[str, int]] = {
        "counters": defaultdict(int), "gauges": defaultdict(int),
    }
    histograms: dict[str, list[int]] = {}
    for snapshot in snapshots:
        for kind, into in sums.items():
            for name, value in snapshot[kind].items():
                into[name] += value
        for name, h in snapshot["histograms"].items():
            total = histograms.setdefault(name, [0] * (_LAST + 3))
            for i, value in enumerate((h["count"], h["sum"], *h["buckets"])):
                total[i] += value
    return _document(sums["counters"], sums["gauges"], histograms)


def readings(snapshot: Snapshot, prefix: str, *names: str) -> dict[str, int]:
    """``name -> value`` of the counter or gauge ``prefix + name`` in
    ``snapshot``, for each of ``names``; 0 for one never counted."""
    values = {**snapshot["counters"], **snapshot["gauges"]}
    return {name: values.get(prefix + name, 0) for name in names}


def _document(
    counters: dict[str, int], gauges: dict[str, int], histograms: dict[str, list[int]]
) -> Snapshot:
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": {
            name: {"count": h[0], "sum": h[1], "buckets": h[2:]}
            for name, h in sorted(histograms.items())
        },
    }
