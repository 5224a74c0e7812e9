"""Per-minute metric emission: the metrics-manager role.

Every Heron container runs a metrics manager that routes instance metrics
to the topology master and the external metrics service (paper Section
II-D).  In this simulator a single :class:`MetricsManager` plays that role
for the whole topology: the simulation engine hands it per-tick counter
increments, and at each minute boundary it flushes Heron-style per-minute
counters into a :class:`~repro.timeseries.store.MetricsStore`.

Metric semantics follow Heron's:

* counter metrics (``execute-count``, ``emit-count``, ``received-count``,
  ``source-count``, ``fail-count``) are *sums over the minute*;
* gauge metrics (``pending-bytes``, ``cpu-load``, ``backlog-tuples``) are
  *time-averages over the minute*;
* ``backpressure-time-ms`` is the milliseconds within the minute that the
  entity spent suppressing spouts, in ``[0, 60000]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MetricsError
from repro.timeseries.store import MetricKey, MetricsStore, raise_first_error

__all__ = ["MetricNames", "MetricsManager"]

MINUTE_SECONDS = 60.0


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

    COUNTERS = frozenset(
        {EXECUTE_COUNT, EMIT_COUNT, RECEIVED_COUNT, SOURCE_COUNT, FAIL_COUNT}
    )
    GAUGES = frozenset(
        {
            PENDING_BYTES,
            CPU_LOAD,
            BACKLOG_TUPLES,
            MEMORY_BYTES,
            QUEUE_LATENCY_MS,
        }
    )

    @staticmethod
    def stream_emit(stream: str) -> str:
        """Buffer key for the per-stream emit counter of one stream."""
        return f"{MetricNames.STREAM_EMIT_COUNT}:{stream}"


@dataclass
class _MinuteBuffer:
    """Accumulators for one instance within the current minute."""

    counters: dict[str, float] = field(default_factory=dict)
    gauge_integrals: dict[str, float] = field(default_factory=dict)
    backpressure_ms: float = 0.0


class MetricsManager:
    """Accumulates per-tick increments and flushes per-minute metrics.

    Parameters
    ----------
    store:
        Destination time-series database.
    topology_name:
        Value of the ``topology`` tag on every emitted series.
    """

    def __init__(
        self,
        store: MetricsStore,
        topology_name: str,
        start_seconds: int = 0,
    ) -> None:
        if start_seconds % int(MINUTE_SECONDS) != 0 or start_seconds < 0:
            raise MetricsError(
                "start_seconds must be a non-negative multiple of 60"
            )
        self.store = store
        self.topology_name = topology_name
        self._buffers: dict[tuple[str, str, str], _MinuteBuffer] = {}
        self._topology_backpressure_ms = 0.0
        self._elapsed_in_minute = 0.0
        self._minute_start = start_seconds
        self._blackouts: set[tuple[str | None, str | None]] = set()

    # ------------------------------------------------------------------
    # Accumulation (called by the simulation each tick)
    # ------------------------------------------------------------------
    def _buffer(self, component: str, instance: str, container: str) -> _MinuteBuffer:
        key = (component, instance, container)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = _MinuteBuffer()
            self._buffers[key] = buffer
        return buffer

    def add_counter(
        self,
        component: str,
        instance: str,
        container: str,
        name: str,
        amount: float,
    ) -> None:
        """Add to a sum-over-the-minute counter.

        Per-stream emit counters use the :meth:`MetricNames.stream_emit`
        key; they are flushed as ``stream-emit-count`` with a ``stream``
        tag.
        """
        is_stream = name.startswith(MetricNames.STREAM_EMIT_COUNT + ":")
        if name not in MetricNames.COUNTERS and not is_stream:
            raise MetricsError(f"{name!r} is not a counter metric")
        buffer = self._buffer(component, instance, container)
        buffer.counters[name] = buffer.counters.get(name, 0.0) + amount

    def add_gauge(
        self,
        component: str,
        instance: str,
        container: str,
        name: str,
        value: float,
        dt: float,
    ) -> None:
        """Integrate a gauge observation held for ``dt`` seconds."""
        if name not in MetricNames.GAUGES:
            raise MetricsError(f"{name!r} is not a gauge metric")
        buffer = self._buffer(component, instance, container)
        buffer.gauge_integrals[name] = (
            buffer.gauge_integrals.get(name, 0.0) + value * dt
        )

    def add_gauge_integral(
        self,
        component: str,
        instance: str,
        container: str,
        name: str,
        integral: float,
    ) -> None:
        """Add a pre-integrated gauge contribution (value x seconds).

        Batched emitters accumulate ``value * dt`` across many ticks in
        numpy and hand the total over in one call; adding the integral
        directly (instead of replaying it through :meth:`add_gauge`)
        keeps the flushed time-average bit-identical to per-tick
        accumulation.
        """
        if name not in MetricNames.GAUGES:
            raise MetricsError(f"{name!r} is not a gauge metric")
        buffer = self._buffer(component, instance, container)
        buffer.gauge_integrals[name] = (
            buffer.gauge_integrals.get(name, 0.0) + integral
        )

    def add_backpressure(
        self,
        component: str,
        instance: str,
        container: str,
        dt: float,
    ) -> None:
        """Record that an instance suppressed spouts for ``dt`` seconds."""
        buffer = self._buffer(component, instance, container)
        buffer.backpressure_ms += dt * 1000.0

    def add_backpressure_ms(
        self,
        component: str,
        instance: str,
        container: str,
        ms: float,
    ) -> None:
        """Add pre-accumulated backpressure milliseconds.

        The milliseconds variant exists for the same reason as
        :meth:`add_gauge_integral`: round-tripping a batched total back
        through ``dt * 1000`` would perturb the low bits.
        """
        if ms < 0:
            raise MetricsError("backpressure milliseconds must be non-negative")
        buffer = self._buffer(component, instance, container)
        buffer.backpressure_ms += ms

    def add_topology_backpressure(self, dt: float) -> None:
        """Record topology-wide backpressure for ``dt`` seconds."""
        self._topology_backpressure_ms += dt * 1000.0

    # ------------------------------------------------------------------
    # Blackouts (fault injection)
    # ------------------------------------------------------------------
    def set_blackout(
        self,
        component: str | None,
        instance: str | None = None,
        active: bool = True,
    ) -> None:
        """Suppress (or resume) metric emission for a scope.

        While a scope is blacked out its per-minute samples are simply
        not written — the store shows *missing minutes*, exactly what a
        crashed instance or a metrics-pipeline dropout produces in a real
        cluster.  Scopes: ``(component, instance)`` one instance,
        ``(component, None)`` a whole component, ``(None, None)`` the
        entire topology including topology-level series.
        """
        if component is None and instance is not None:
            raise MetricsError("instance blackout needs its component")
        key = (component, instance)
        if active:
            self._blackouts.add(key)
        else:
            self._blackouts.discard(key)

    def blacked_out(self, component: str, instance: str) -> bool:
        """True when samples for this instance are being suppressed."""
        return (
            (None, None) in self._blackouts
            or (component, None) in self._blackouts
            or (component, instance) in self._blackouts
        )

    @property
    def has_blackouts(self) -> bool:
        """True while any blackout scope is active.

        Batched flushers must fall back to the keyed path whenever this
        is set: blackouts produce *missing* samples, which a fixed-batch
        append cannot express.
        """
        return bool(self._blackouts)

    # ------------------------------------------------------------------
    # Time keeping / flushing
    # ------------------------------------------------------------------
    def advance(self, dt: float) -> None:
        """Advance the minute clock; flush when a boundary is crossed.

        The engine must call this exactly once per tick, after recording
        the tick's increments.  Tick lengths must divide 60 seconds so
        minutes close exactly (Heron's metric interval).
        """
        if dt <= 0:
            raise MetricsError("tick length must be positive")
        self._elapsed_in_minute += dt
        if self._elapsed_in_minute >= MINUTE_SECONDS - 1e-9:
            self._flush_minute()

    def advance_batched(self, dt: float) -> None:
        """Advance the clock across a minute the caller already flushed.

        The simulator's batched flush path writes the closing minute's
        samples straight into the store (see
        :meth:`~repro.timeseries.store.MetricsStore.append_minute_batch`)
        without ever touching the per-instance buffers, so crossing the
        boundary must *not* run :meth:`_flush_minute` — the buffers are
        empty and flushing them would emit spurious zero-valued
        ``backpressure-time-ms`` samples.  This variant only resets the
        minute state: topology backpressure, elapsed time, minute start.
        """
        if dt <= 0:
            raise MetricsError("tick length must be positive")
        self._elapsed_in_minute += dt
        if self._elapsed_in_minute >= MINUTE_SECONDS - 1e-9:
            self._topology_backpressure_ms = 0.0
            self._elapsed_in_minute = 0.0
            self._minute_start += int(MINUTE_SECONDS)

    @property
    def topology_backpressure_ms(self) -> float:
        """Topology-wide backpressure accumulated in the open minute."""
        return self._topology_backpressure_ms

    def minute_closing(self, dt: float) -> bool:
        """True when the next :meth:`advance` call of ``dt`` will flush.

        Batched emitters use this to hand their accumulated minute over
        *before* the advance that closes it, using the manager's own
        clock so the decision never drifts from the actual flush.
        """
        return self._elapsed_in_minute + dt >= MINUTE_SECONDS - 1e-9

    def _flush_minute(self) -> None:
        """Hand the closing minute to the store as one keyed batch."""
        timestamp = self._minute_start
        stream_prefix = MetricNames.STREAM_EMIT_COUNT + ":"
        ceiling = MINUTE_SECONDS * 1000.0
        samples: list[tuple[str, dict[str, str], float]] = []
        add = samples.append
        for (component, instance, container), buffer in self._buffers.items():
            if self.blacked_out(component, instance):
                continue
            tags = {
                "topology": self.topology_name,
                "component": component,
                "instance": instance,
                "container": container,
            }
            for name, value in buffer.counters.items():
                if name.startswith(stream_prefix):
                    stream = {**tags, "stream": name[len(stream_prefix):]}
                    add((MetricNames.STREAM_EMIT_COUNT, stream, value))
                else:
                    add((name, tags, value))
            for name, integral in buffer.gauge_integrals.items():
                add((name, tags, integral / MINUTE_SECONDS))
            add(
                (MetricNames.BACKPRESSURE_TIME_MS, tags,
                 min(buffer.backpressure_ms, ceiling))
            )
        if (None, None) not in self._blackouts:
            add(
                (MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS,
                 {"topology": self.topology_name},
                 min(self._topology_backpressure_ms, ceiling))
            )
        raise_first_error(
            self.store.apply_sample_batch(
                [
                    (MetricKey.of(name, tags), timestamp, value)
                    for name, tags, value in samples
                ]
            )
        )
        self._buffers = {key: _MinuteBuffer() for key in self._buffers}
        self._topology_backpressure_ms = 0.0
        self._elapsed_in_minute = 0.0
        self._minute_start += int(MINUTE_SECONDS)

    @property
    def minute_start(self) -> int:
        """Timestamp (seconds) of the minute currently accumulating."""
        return self._minute_start

    def register_instance(
        self, component: str, instance: str, container: str
    ) -> None:
        """Pre-create buffers so every instance reports every minute.

        Without registration an idle instance would emit no series at all;
        Heron instances always report (zeros included), and the models
        depend on aligned timestamps across instances.
        """
        self._buffer(component, instance, container)
