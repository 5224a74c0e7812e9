"""Durability and lifecycle: the service-survival subsystem.

Five cooperating pieces make the Caladrius service restartable and
stoppable without losing acknowledged state:

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

from repro.durability.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitOpenError,
)
from repro.durability.checkpoint import CheckpointManager, atomic_write_json
from repro.durability.deadline import (
    DEADLINE_HEADER,
    Deadline,
    DeadlineExceeded,
    check_deadline,
    current_deadline,
    deadline_scope,
    parse_deadline_header,
)
from repro.durability.lifecycle import (
    DRAINING,
    RUNNING,
    STOPPED,
    LifecycleController,
)
from repro.durability.codec import store_content_hash
from repro.durability.recovery import open_data_dir, peek_recoverable_lsn
from repro.durability.store import (
    DurableMetricsStore,
    RecoveryReport,
    apply_wal_records,
)
from repro.durability.wal import (
    FSYNC_ALWAYS,
    FSYNC_INTERVAL,
    FSYNC_NEVER,
    FSYNC_POLICIES,
    WriteAheadLog,
    read_segment_records,
)

__all__ = [
    "CheckpointManager",
    "CircuitBreaker",
    "CircuitOpenError",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "DEADLINE_HEADER",
    "Deadline",
    "DeadlineExceeded",
    "DRAINING",
    "RUNNING",
    "STOPPED",
    "DurableMetricsStore",
    "FSYNC_ALWAYS",
    "FSYNC_INTERVAL",
    "FSYNC_NEVER",
    "FSYNC_POLICIES",
    "LifecycleController",
    "RecoveryReport",
    "WriteAheadLog",
    "apply_wal_records",
    "atomic_write_json",
    "check_deadline",
    "read_segment_records",
    "store_content_hash",
    "current_deadline",
    "deadline_scope",
    "open_data_dir",
    "parse_deadline_header",
    "peek_recoverable_lsn",
]
