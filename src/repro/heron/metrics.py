"""Per-minute metric names and semantics: the metrics-manager contract.

Every Heron container runs a metrics manager that routes instance metrics
to the topology master and the external metrics service (paper Section
II-D).  In this simulator the engine plays that role itself: the tick
that closes a minute hands one sample per series to a
:class:`~repro.timeseries.store.MetricsStore`
(:meth:`repro.heron.simulation.HeronSimulation._close_minute`).

Metric semantics follow Heron's:

* counter metrics (``execute-count``, ``emit-count``, ``received-count``,
  ``source-count``, ``fail-count``, and ``stream-emit-count`` per output
  stream, told apart by a ``stream`` tag) are *sums over the minute*;
* gauge metrics (``pending-bytes``, ``cpu-load``, ``backlog-tuples``,
  ``memory-bytes``, ``queue-latency-ms``) are *time-averages over the
  minute*;
* ``backpressure-time-ms`` is the milliseconds within the minute that the
  entity spent suppressing spouts, in ``[0, 60000]``.

Every instance reports every series every minute, zeros included — the
models depend on aligned timestamps across instances — except while it is
crashed or under a metric dropout, when its minutes are *missing*.
"""

from __future__ import annotations

__all__ = ["MetricNames"]


class MetricNames:
    """Canonical metric names, mirroring Heron's counter names."""

    EXECUTE_COUNT = "execute-count"
    EMIT_COUNT = "emit-count"
    STREAM_EMIT_COUNT = "stream-emit-count"
    RECEIVED_COUNT = "received-count"
    SOURCE_COUNT = "source-count"
    FAIL_COUNT = "fail-count"
    PENDING_BYTES = "pending-bytes"
    BACKLOG_TUPLES = "backlog-tuples"
    CPU_LOAD = "cpu-load"
    MEMORY_BYTES = "memory-bytes"
    QUEUE_LATENCY_MS = "queue-latency-ms"
    BACKPRESSURE_TIME_MS = "backpressure-time-ms"
    TOPOLOGY_BACKPRESSURE_TIME_MS = "topology-backpressure-time-ms"
