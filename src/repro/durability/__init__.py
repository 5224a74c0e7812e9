"""Durability and lifecycle: the service-survival subsystem.

Six cooperating pieces make the Caladrius service restartable and
stoppable without losing acknowledged state:

* :mod:`repro.durability.disk` — :class:`Disk`, the one seam every file
  operation of the log, the checkpoint and the store goes through;
* :mod:`repro.durability.wal` — a segmented, CRC32-framed write-ahead
  log with configurable fsync policy and torn-tail-tolerant replay;
* :mod:`repro.durability.store` — :class:`DurableMetricsStore`, a
  :class:`~repro.timeseries.store.MetricsStore` that journals every
  acknowledged mutation and recovers snapshot + WAL on open;
* :mod:`repro.durability.checkpoint` — :class:`CheckpointManager`,
  atomic snapshots of the store and tracker that truncate replayed WAL
  segments;
* :mod:`repro.durability.lifecycle` / :mod:`repro.durability.deadline`
  — the drain state machine behind ``/readyz`` and SIGTERM handling,
  and end-to-end ``X-Request-Deadline`` propagation;
* :mod:`repro.durability.breaker` — a closed/open/half-open circuit
  breaker around model evaluation.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "breaker": (
            "CLOSED", "HALF_OPEN", "OPEN", "CircuitBreaker",
            "CircuitOpenError",
        ),
        "checkpoint": ("CheckpointManager",),
        "codec": ("store_content_hash",),
        "deadline": (
            "Deadline", "DeadlineExceeded", "check_deadline", "deadline_scope",
            "parse_deadline_header",
        ),
        "lifecycle": ("DRAINING", "RUNNING", "STOPPED", "LifecycleController"),
        "recovery": ("open_data_dir",),
        "store": ("DurableMetricsStore",),
        "wal": ("WriteAheadLog",),
    },
)
