"""The discrete-time (fluid) Heron topology simulator.

This is the substrate that replaces the paper's Aurora/Heron cluster.  Each
tick (default one second) the engine:

1. lets every spout instance fetch from its external source and emit,
   unless topology backpressure is active — in which case spouts are
   suppressed and the external source accumulates a backlog (the paper's
   "data will begin to accumulate in the external system");
2. routes emissions to downstream instances according to each stream's
   grouping shares, optionally through finite-capacity stream managers;
3. lets every bolt instance drain its pending queue at its (noisy)
   processing capacity and emit ``alpha`` tuples per processed tuple on
   each declared output stream;
4. applies Heron's high/low watermark rule per instance: pending bytes
   above the high watermark raise that instance's backpressure flag, which
   stays raised until pending falls below the low watermark; any raised
   flag suppresses every spout (the broadcast to all stream managers);
5. accrues CPU (worker thread proportional to utilisation, gateway thread
   proportional to tuples moved) and, on the tick that closes a minute,
   plays the metrics-manager role (paper Section II-D): one sample per
   series of the minute layout goes to the metrics store.

Spout emissions are additionally clipped against downstream queue headroom
within the tick: a real stream manager stops reading from a spout the
moment a queue hits its high watermark, and with one-second ticks an
unclipped burst would overshoot the watermark by an unphysical margin.
The clip models that intra-tick stall, and it is what pins a saturated
queue at the high watermark — reproducing the paper's observation that
backpressure time per minute is "either close to 60 [seconds] or 0".

The simulator is fluid: tuple counts are real numbers (rates), not
individual tuples.  Every quantity the paper's models consume — counters,
saturation behaviour, grouping shares, CPU — is faithfully produced; tuple
contents are not materialised.

Engine internals (the struct-of-arrays core)
--------------------------------------------
State lives in flat numpy arenas indexed by a global instance id — one
arena set for spouts, one for bolts — instead of per-component objects.
Topology routing is compiled once at construction into flat edge tables
(destination-index, share, source-slot gathers), bolts are arena-ordered
by topological *level* so the in-tick delivery of transparent stream
managers becomes one whole-array pass per level, and all per-tick RNG is
pre-drawn in minute-sized batches with a static draw layout.  Every
floating-point operation sequence — including numpy's pairwise summation
trees and the RNG draw order — is arranged to be bit-identical to the
scalar engine this one replaced; the golden fixtures under ``tests/data``,
recorded from that engine, pin the contract.

The per-minute series table — which series every instance reports, in
which order, gathered from which accumulator — is compiled once
(:meth:`HeronSimulation._compile_minute_layout`) and read by the one
minute close, whether it writes keyed or through a prepared batch.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.errors import MetricsError, SimulationError
from repro.heron.metrics import MetricNames
from repro.heron.packing import PackingPlan
from repro.heron.topology import LogicalTopology, Stream
from repro.timeseries.store import (
    MetricKey,
    MetricsStore,
    MinuteBatch,
    raise_first_error,
)

__all__ = [
    "SimulationConfig",
    "ComponentLogic",
    "SpoutLogic",
    "HeronSimulation",
    "warm_shares_memo",
]

_MINUTE = 60.0


@dataclass(frozen=True)
class SimulationConfig:
    """Engine-wide parameters.

    Parameters
    ----------
    tick_seconds:
        Simulation step.  Must divide 60 exactly so per-minute metrics
        close on minute boundaries.
    high_watermark_bytes / low_watermark_bytes:
        Heron's defaults are 100 MB / 50 MB (paper Section IV-B1).
    stmgr_capacity_tps:
        Tuples per second one container's stream manager can route.
        ``None`` (default) makes stream managers transparent, matching
        the paper's assumption that they are never the bottleneck; finite
        values enable the ablation that stresses that assumption.
    seed:
        Seed for all stochastic elements (capacity and rate noise).
    """

    tick_seconds: float = 1.0
    high_watermark_bytes: float = 100e6
    low_watermark_bytes: float = 50e6
    stmgr_capacity_tps: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tick_seconds <= 0:
            raise SimulationError("tick_seconds must be positive")
        ticks_per_minute = _MINUTE / self.tick_seconds
        if abs(ticks_per_minute - round(ticks_per_minute)) > 1e-9:
            raise SimulationError("tick_seconds must divide 60 exactly")
        if self.low_watermark_bytes <= 0:
            raise SimulationError("low watermark must be positive")
        if self.high_watermark_bytes <= self.low_watermark_bytes:
            raise SimulationError("high watermark must exceed low watermark")
        if self.stmgr_capacity_tps is not None and self.stmgr_capacity_tps <= 0:
            raise SimulationError("stmgr capacity must be positive or None")


@dataclass(frozen=True)
class ComponentLogic:
    """Processing behaviour of one bolt's instances.

    Parameters
    ----------
    capacity_tps:
        Maximum tuples one instance processes per second (the user code's
        speed on its allocated core).  This determines the instance's
        saturation point.
    alphas:
        Output-stream name → tuples emitted per tuple processed (the I/O
        coefficient, paper Eq. 1).  Sinks use an empty mapping.
    input_tuple_bytes:
        Mean serialised size of one input tuple; converts queued tuples
        into pending bytes for the watermark rule.
    worker_cores:
        Cores the worker thread consumes at 100% utilisation.
    gateway_cores_per_tuple:
        Core-seconds the gateway thread spends per tuple moved in or out.
        This term makes CPU load linear in traffic, the premise of the
        paper's CPU model (Section V-E).
    capacity_noise:
        Relative standard deviation of per-tick capacity (models the
        gateway/worker contention the paper sees in Fig. 5).
    alpha_noise:
        Relative standard deviation of the per-tick effective I/O
        coefficient — the small sampling fluctuation of e.g. words per
        sentence within one tick's batch (the Fig. 5 wiggle).
    failure_rate:
        Fraction of processed tuples the user logic fails (the paper's
        "Errors" golden signal).  Failed tuples consume processing
        capacity but emit nothing downstream; they are reported on the
        ``fail-count`` metric.
    base_memory_bytes / state_bytes_per_processed / state_memory_cap_bytes:
        Per-instance memory model: resident set = base + pending queue
        bytes + accumulated state, where state grows per processed tuple
        up to a cap (a Counter's state stops growing once every distinct
        key has been seen).  Reported on the ``memory-bytes`` gauge.
    """

    capacity_tps: float
    alphas: Mapping[str, float] = field(default_factory=dict)
    input_tuple_bytes: float = 64.0
    worker_cores: float = 0.85
    gateway_cores_per_tuple: float = 1.8e-7
    capacity_noise: float = 0.02
    alpha_noise: float = 0.0005
    failure_rate: float = 0.0
    base_memory_bytes: float = 256e6
    state_bytes_per_processed: float = 0.0
    state_memory_cap_bytes: float = 512e6

    def __post_init__(self) -> None:
        if self.capacity_tps <= 0:
            raise SimulationError("capacity_tps must be positive")
        if self.input_tuple_bytes <= 0:
            raise SimulationError("input_tuple_bytes must be positive")
        if any(a < 0 for a in self.alphas.values()):
            raise SimulationError("alphas must be non-negative")
        if self.capacity_noise < 0:
            raise SimulationError("capacity_noise must be non-negative")
        if self.alpha_noise < 0:
            raise SimulationError("alpha_noise must be non-negative")
        if not 0.0 <= self.failure_rate < 1.0:
            raise SimulationError("failure_rate must be in [0, 1)")
        if self.base_memory_bytes < 0 or self.state_bytes_per_processed < 0:
            raise SimulationError("memory parameters must be non-negative")
        if self.state_memory_cap_bytes < 0:
            raise SimulationError("state_memory_cap_bytes must be non-negative")


@dataclass(frozen=True)
class SpoutLogic:
    """Behaviour of one spout's instances.

    The evaluation spout (paper Section V-A) is "a special kind of spout
    whose output rate matches the configured throughput if there is no
    backpressure ... and their throughput is reduced if backpressure is
    triggered".  Here the external source produces tuples at the
    configured rate continuously; while spouts are suppressed the unsent
    tuples accumulate as backlog, and on resume the spout catches up at
    ``fetch_multiplier`` times the configured rate.

    ``alphas`` maps output stream names to tuples emitted per fetched
    tuple (1.0 for the pass-through evaluation spout).
    """

    fetch_multiplier: float = 10.0
    alphas: Mapping[str, float] = field(default_factory=lambda: {"default": 1.0})
    worker_cores: float = 0.4
    gateway_cores_per_tuple: float = 1.8e-7
    rate_noise: float = 0.01

    def __post_init__(self) -> None:
        if self.fetch_multiplier < 1.0:
            raise SimulationError("fetch_multiplier must be >= 1")
        if any(a < 0 for a in self.alphas.values()):
            raise SimulationError("alphas must be non-negative")
        if self.rate_noise < 0:
            raise SimulationError("rate_noise must be non-negative")


# ----------------------------------------------------------------------
# Cross-simulation shares memo
# ----------------------------------------------------------------------
# Grouping objects are immutable and shared across the topologies a plan
# sweep derives via ``with_parallelism``, so their per-destination share
# vectors can be computed once per (grouping identity, parallelism) and
# reused by every simulation in the process — the pool workers warm this
# from their pickled-once spec.  Entries hold a strong reference to the
# grouping so a recycled ``id`` can never alias a dead object; the
# identity check guards the pathological case regardless.
_SHARES_MEMO: dict[tuple[int, int], tuple[object, np.ndarray]] = {}
_SHARES_MEMO_CAP = 4096


def _grouping_shares(grouping, dest_parallelism: int) -> np.ndarray:
    key = (id(grouping), dest_parallelism)
    hit = _SHARES_MEMO.get(key)
    if hit is not None and hit[0] is grouping:
        return hit[1]
    shares = grouping.shares(dest_parallelism)
    # The memoized array is shared across every simulation in the
    # process; freeze it so no consumer can mutate routing under
    # another's feet.
    shares.flags.writeable = False
    if len(_SHARES_MEMO) >= _SHARES_MEMO_CAP:
        _SHARES_MEMO.clear()
    _SHARES_MEMO[key] = (grouping, shares)
    return shares


def warm_shares_memo(topology: LogicalTopology) -> int:
    """Precompute every stream's share vector into the process memo.

    Returns the number of streams warmed.  Used by pool workers so each
    per-plan simulation starts with its routing shares already resolved.
    """
    count = 0
    for component in topology.components:
        for stream in topology.outputs(component):
            _grouping_shares(
                stream.grouping, topology.parallelism(stream.destination)
            )
            count += 1
    return count


class _SpoutView:
    """Per-component handle over the spout arenas (one arena slice)."""

    __slots__ = ("name", "logic", "parallelism", "start", "stop", "rate_tps")

    def __init__(self, name: str, parallelism: int, logic: SpoutLogic) -> None:
        self.name = name
        self.logic = logic
        self.parallelism = parallelism
        self.start = 0
        self.stop = 0
        self.rate_tps = 0.0  # configured source rate, per instance


class _BoltView:
    """Per-component handle over the bolt arenas (one arena slice)."""

    __slots__ = ("name", "logic", "parallelism", "start", "stop")

    def __init__(self, name: str, parallelism: int, logic: ComponentLogic) -> None:
        self.name = name
        self.logic = logic
        self.parallelism = parallelism
        self.start = 0
        self.stop = 0


class _StmgrState:
    """Runtime state for one container's stream manager.

    Only used when the stream manager has finite capacity: tuples routed
    to the container's instances wait in ``pending`` (keyed by
    destination component, one slot per *local* instance) until the
    stream manager's per-tick budget releases them.
    """

    def __init__(self, container_id: int) -> None:
        self.container_id = container_id
        self.pending: dict[str, np.ndarray] = {}
        self.bp_flag = False

    def queued_tuples(self) -> float:
        """Total tuples waiting inside this stream manager."""
        return float(sum(p.sum() for p in self.pending.values()))


class _EdgeGroup:
    """One compiled batch of routing edges sharing an application point.

    ``dest_idx[i]`` is the bolt-arena index receiving
    ``slot_sums[slot_idx[i]] * shares[i]``; elements are laid out in
    global edge order so per-destination addition order matches the
    per-stream ``+=`` sequence of the scalar engine.  When every
    destination element receives exactly one contribution in the whole
    tick (``injective``), scatter-assign replaces ``np.add.at``.
    """

    __slots__ = ("dest_idx", "slot_idx", "shares", "buf", "injective")

    def __init__(
        self,
        dest_idx: np.ndarray,
        slot_idx: np.ndarray,
        shares: np.ndarray,
    ) -> None:
        self.dest_idx = dest_idx
        self.slot_idx = slot_idx
        self.shares = shares
        self.buf = np.empty(dest_idx.shape[0])
        self.injective = False


class _ClipEdge:
    """Precomputed operands for one spout output stream's headroom clip."""

    __slots__ = (
        "alpha", "shares", "mask", "dest_q", "itb", "cap_dt",
        "buf", "denom", "per",
    )

    def __init__(
        self,
        alpha: float,
        shares: np.ndarray,
        dest_q: np.ndarray,
        itb: float,
        cap_dt: float,
    ) -> None:
        self.alpha = alpha
        self.shares = shares
        self.mask = shares > 0
        self.dest_q = dest_q  # live view of the destination queue slice
        self.itb = itb
        self.cap_dt = cap_dt
        self.buf = np.empty(shares.shape[0])
        self.denom = np.empty(shares.shape[0])
        self.per = np.empty(shares.shape[0])


@dataclass(frozen=True, slots=True)
class _MinuteLayout:
    """The compiled per-minute series table of one simulation.

    ``keys[i]`` is the series ``out[i]`` is written to, ``owners[i]`` the
    ``(component, index)`` of the instance reporting it (``None`` for
    the topology-level series, which comes last).  ``counters`` / ``gauges``
    are ``(positions, gather, accumulator)`` triples — ``out[positions]``
    is filled from ``accumulator[gather]`` — and ``bp_positions`` /
    ``bp_gather`` the same for the bolts' backpressure milliseconds.
    Positions no triple covers (a spout's ``backpressure-time-ms``: a
    spout never raises backpressure) keep the zero ``out`` starts with.
    ``instances`` lists each owner once, as ``(component, index,
    down-flag arena, arena index)``.
    """

    keys: list[MetricKey]
    owners: list[tuple[str, int] | None]
    instances: list[tuple[str, int, np.ndarray, int]]
    out: np.ndarray
    counters: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    gauges: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    bp_positions: np.ndarray
    bp_gather: np.ndarray


def _contiguous_span(
    idx: np.ndarray, cols: np.ndarray
) -> tuple[int, int, int, int] | None:
    """Slice bounds when a scatter's indices form one contiguous run.

    Returns ``(i0, i1, c0, c1)`` such that ``dest[i0:i1] = row[c0:c1]``
    reproduces ``dest[idx] = row[cols]`` exactly, or ``None`` when the
    index sets are empty or non-contiguous.
    """
    n = idx.shape[0]
    if n == 0:
        return None
    i0, c0 = int(idx[0]), int(cols[0])
    if not np.array_equal(idx, np.arange(i0, i0 + n, dtype=np.intp)):
        return None
    if not np.array_equal(cols, np.arange(c0, c0 + n, dtype=np.intp)):
        return None
    return (i0, i0 + n, c0, c0 + n)


def _sum_groups(
    slot_ranges: list[tuple[int, int, int]]
) -> list[tuple[np.ndarray, np.ndarray, int, int]]:
    """Group (slot_id, flat_start, flat_stop) slots by segment length.

    Equal-length segments gathered into an ``(n, L)`` matrix and summed
    along axis 1 reproduce numpy's pairwise-summation tree of each
    contiguous segment exactly — the bit-identity requirement for the
    per-stream totals that feed the routing edges.
    """
    by_len: dict[int, list[tuple[int, int]]] = {}
    for sid, f0, f1 in slot_ranges:
        by_len.setdefault(f1 - f0, []).append((sid, f0))
    groups = []
    for length, items in by_len.items():
        out_idx = np.array([sid for sid, _ in items], dtype=np.intp)
        flat_idx = np.concatenate(
            [np.arange(f0, f0 + length, dtype=np.intp) for _, f0 in items]
        )
        groups.append((out_idx, flat_idx, len(items), length))
    return groups


class HeronSimulation:
    """A running topology: the simulated equivalent of a Heron job.

    Parameters
    ----------
    topology:
        The logical topology to run.
    packing:
        Its physical plan.  Parallelisms must match the logical topology.
    logic:
        Component name → :class:`SpoutLogic` (for spouts) or
        :class:`ComponentLogic` (for bolts).  Every component needs an
        entry, and every declared output stream needs an alpha.
    store:
        Metrics destination; per-minute Heron-style counters are written
        here, tagged with topology/component/instance/container.
    config:
        Engine parameters.
    start_at_seconds:
        Simulation clock origin (a multiple of 60).  Redeployments —
        e.g. an autoscaler replacing the topology — pass the previous
        simulation's end time so the shared metrics store keeps one
        continuous history.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` (or a prepared
        :class:`~repro.faults.injector.FaultInjector`) executed against
        this run: crashes, stragglers, stream-manager stalls and metric
        dropouts fire deterministically at their scheduled ticks.
    """

    def __init__(
        self,
        topology: LogicalTopology,
        packing: PackingPlan,
        logic: Mapping[str, SpoutLogic | ComponentLogic],
        store: MetricsStore,
        config: SimulationConfig | None = None,
        start_at_seconds: int = 0,
        faults: "object | None" = None,
    ) -> None:
        self.topology = topology
        self.packing = packing
        self.config = config or SimulationConfig()
        self._rng = np.random.default_rng(self.config.seed)
        if start_at_seconds < 0 or start_at_seconds % int(_MINUTE) != 0:
            raise MetricsError(
                "start_at_seconds must be a non-negative multiple of 60"
            )
        self._store = store
        self._now = float(start_at_seconds)
        # The open minute: its timestamp, the ticks it has seen and the
        # topology-wide backpressure they accrued.
        self._minute_start = start_at_seconds
        self._minute_ticks = 0
        self._ticks_per_minute = round(_MINUTE / self.config.tick_seconds)
        self._topology_bp_ms = 0.0
        # Active metric-dropout scopes: ``(component, index)`` one
        # instance, ``(component, None)`` a component, ``(None, None)``
        # the topology including its topology-level series.
        self._dropouts: set[tuple[str | None, int | None]] = set()
        self._spouts: dict[str, _SpoutView] = {}
        self._bolts: dict[str, _BoltView] = {}
        self._containers: dict[str, np.ndarray] = {}
        self._validate_and_build(logic)
        self._order = [c.name for c in topology.topological_order()]
        self._compile_arenas()
        self._stmgrs: dict[int, _StmgrState] = {
            c.container_id: _StmgrState(c.container_id)
            for c in packing.containers
        }
        self._compile_stmgr_index()
        self._stalled_containers: set[int] = set()
        self._injector = None
        if faults is not None:
            # Imported lazily: repro.faults depends on repro.heron types.
            from repro.faults.injector import FaultInjector
            from repro.faults.plan import FaultPlan

            if isinstance(faults, FaultPlan):
                self._injector = FaultInjector(faults)
            elif isinstance(faults, FaultInjector):
                self._injector = faults
            else:
                raise SimulationError(
                    "faults must be a FaultPlan or FaultInjector, "
                    f"got {type(faults).__name__}"
                )
            self._injector.attach(self)
        # Compiled by the first minute close, the first to need it.
        self._layout: _MinuteLayout | None = None
        # The store's prepared append over the layout's series, and the
        # topology's ``data_version`` as this simulation last left it.
        self._batch: MinuteBatch | None = None
        self._store_token = -1

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _validate_and_build(
        self, logic: Mapping[str, SpoutLogic | ComponentLogic]
    ) -> None:
        for name, spec in self.topology.components.items():
            if name not in logic:
                raise SimulationError(f"no logic provided for component {name!r}")
            entry = logic[name]
            if self.packing.parallelism(name) != spec.parallelism:
                raise SimulationError(
                    f"packing parallelism for {name!r} "
                    f"({self.packing.parallelism(name)}) does not match the "
                    f"logical topology ({spec.parallelism})"
                )
            if spec.is_spout and not isinstance(entry, SpoutLogic):
                raise SimulationError(f"spout {name!r} needs SpoutLogic")
            if not spec.is_spout and not isinstance(entry, ComponentLogic):
                raise SimulationError(f"bolt {name!r} needs ComponentLogic")
            declared_streams = {s.name for s in self.topology.outputs(name)}
            missing = declared_streams - set(entry.alphas)
            if missing:
                raise SimulationError(
                    f"component {name!r} declares output streams {sorted(missing)} "
                    "without alphas"
                )
            if spec.is_spout:
                self._spouts[name] = _SpoutView(name, spec.parallelism, entry)
            else:
                self._bolts[name] = _BoltView(name, spec.parallelism, entry)
        for name in self.topology.components:
            containers = np.array(
                [
                    self.packing.container_of(name, i)
                    for i in range(self.topology.parallelism(name))
                ]
            )
            self._containers[name] = containers

    def _output_stream_names(self, component: str) -> list[str]:
        """Declared output stream names, deduplicated in outputs order
        (the per-tick emission-slot order)."""
        return list(
            dict.fromkeys(s.name for s in self.topology.outputs(component))
        )

    def _shares(self, stream: Stream) -> np.ndarray:
        return _grouping_shares(
            stream.grouping, self.topology.parallelism(stream.destination)
        )

    def _compile_arenas(self) -> None:
        """Build the struct-of-arrays state and the compiled routing.

        Bolts are arena-ordered by topological level (stable within a
        level by scalar-engine processing order) so transparent-mode
        in-tick delivery advances level by level with whole-array ops.
        """
        topology = self.topology
        dt = self.config.tick_seconds
        self._use_stmgr = self.config.stmgr_capacity_tps is not None
        self._hwm = self.config.high_watermark_bytes
        self._high_trigger = self.config.high_watermark_bytes * (1.0 - 1e-9)
        self._low = self.config.low_watermark_bytes

        # --- spout arena (component insertion order) -------------------
        self._spout_names = list(self._spouts)
        n_sp = 0
        for view in self._spouts.values():
            view.start = n_sp
            view.stop = n_sp + view.parallelism
            n_sp = view.stop
        self._n_sp = n_sp
        self._sp_backlog = np.zeros(n_sp)
        self._sp_down = np.zeros(n_sp, dtype=bool)
        self._sp_noise = np.ones(n_sp)
        self._sp_rate_dt = np.zeros(n_sp)
        self._sp_fetch_cap = np.zeros(n_sp)
        self._sp_util_denom = np.ones(n_sp)
        # Per-tick quantities live as rows of one 2D block so the minute
        # accumulation is a single 2D += instead of one add per metric
        # (bit-identical: the add is elementwise either way).
        self._sp_tick2d = np.zeros((5, n_sp))
        self._sp_source = self._sp_tick2d[0]
        self._sp_fetched = self._sp_tick2d[1]
        self._sp_emitted = self._sp_tick2d[2]
        self._sp_backlog_dt = self._sp_tick2d[3]
        self._sp_cpu_dt = self._sp_tick2d[4]
        self._sp_worker = np.zeros(n_sp)
        self._sp_gcpt = np.zeros(n_sp)
        self._sp_containers = np.zeros(n_sp, dtype=np.int64)
        self._sp_t1 = np.empty(n_sp)
        self._sp_t2 = np.empty(n_sp)
        for name, view in self._spouts.items():
            sl = slice(view.start, view.stop)
            self._sp_worker[sl] = view.logic.worker_cores
            self._sp_gcpt[sl] = view.logic.gateway_cores_per_tuple
            self._sp_containers[sl] = self._containers[name]

        # --- bolt arena (level-major, stable by processing order) ------
        self._bolt_names = list(self._bolts)  # component insertion order
        order_bolts = [n for n in self._order if n in self._bolts]
        self._bolt_order_names = order_bolts  # scalar-engine tick order
        incoming: dict[str, list[str]] = {}
        for comp in topology.components:
            for s in topology.outputs(comp):
                incoming.setdefault(s.destination, []).append(comp)
        level: dict[str, int] = {}
        for name in self._order:
            if name in self._spouts:
                level[name] = 0
            else:
                level[name] = 1 + max(level[src] for src in incoming[name])
        self._n_levels = max((level[n] for n in order_bolts), default=0)
        arena_names = sorted(order_bolts, key=lambda n: level[n])  # stable
        self._bolt_arena_names = arena_names
        n_b = 0
        for name in arena_names:
            view = self._bolts[name]
            view.start = n_b
            view.stop = n_b + view.parallelism
            n_b = view.stop
        self._n_b = n_b
        # Levels have no gaps: every bolt's level is 1 + the max level of
        # its sources, and the chain below any bolt bottoms out at a
        # level-1 bolt, so each k in [1, n_levels] has members.
        self._level_bounds: list[tuple[int, int]] = []
        for k in range(1, self._n_levels + 1):
            members = [self._bolts[n] for n in arena_names if level[n] == k]
            self._level_bounds.append((members[0].start, members[-1].stop))

        self._b_queue = np.zeros(n_b)
        self._b_bp = np.zeros(n_b, dtype=bool)
        self._b_factor = np.ones(n_b)
        self._b_down = np.zeros(n_b, dtype=bool)
        self._b_state = np.zeros(n_b)
        self._b_noise = np.ones(n_b)
        self._b_tick2d = np.zeros((9, n_b))
        self._b_arrivals = self._b_tick2d[0]
        self._b_processed = self._b_tick2d[1]
        self._b_emitted = self._b_tick2d[2]
        self._b_failed = self._b_tick2d[3]
        self._b_memory_dt = self._b_tick2d[4]
        self._b_latency_dt = self._b_tick2d[5]
        self._b_pending_dt = self._b_tick2d[6]
        self._b_cpu_dt = self._b_tick2d[7]
        self._b_bpms = self._b_tick2d[8]
        self._b_capacity = np.zeros(n_b)
        self._b_successful = np.zeros(n_b)
        self._b_pending = np.zeros(n_b)
        self._b_outbox = np.zeros(n_b) if self._use_stmgr else None
        self._b_containers = np.zeros(n_b, dtype=np.int64)
        self._b_cap_dt = np.zeros(n_b)
        self._b_captps = np.zeros(n_b)
        self._b_itb = np.zeros(n_b)
        self._b_failrate = np.zeros(n_b)
        self._b_sbpp = np.zeros(n_b)
        self._b_scap = np.zeros(n_b)
        self._b_base_mem = np.zeros(n_b)
        self._b_worker = np.zeros(n_b)
        self._b_gcpt = np.zeros(n_b)
        self._b_t1 = np.empty(n_b)
        self._b_t2 = np.empty(n_b)
        self._b_t3 = np.empty(n_b)
        self._b_t4 = np.empty(n_b)
        self._any_state = False
        for name in arena_names:
            view = self._bolts[name]
            lg = view.logic
            sl = slice(view.start, view.stop)
            self._b_containers[sl] = self._containers[name]
            self._b_cap_dt[sl] = lg.capacity_tps * dt
            self._b_captps[sl] = lg.capacity_tps
            self._b_itb[sl] = lg.input_tuple_bytes
            self._b_failrate[sl] = lg.failure_rate
            self._b_sbpp[sl] = lg.state_bytes_per_processed
            self._b_scap[sl] = lg.state_memory_cap_bytes
            self._b_base_mem[sl] = lg.base_memory_bytes
            self._b_worker[sl] = lg.worker_cores
            self._b_gcpt[sl] = lg.gateway_cores_per_tuple
            if lg.state_bytes_per_processed > 0:
                self._any_state = True

        # --- emission slots (one per unique output stream) -------------
        # Spout slots in spout insertion order; bolt slots in ARENA order
        # so each level's slots form one contiguous flat range.
        self._sp_slot_records: list[tuple[str, str, int, int]] = []
        self._sp_stream_slots: dict[str, list[tuple[str, int]]] = {}
        sp_gather: list[np.ndarray] = []
        sp_alpha_flat: list[np.ndarray] = []
        flat = 0
        for name in self._spout_names:
            view = self._spouts[name]
            entries = []
            for stream_name in self._output_stream_names(name):
                sid = len(self._sp_slot_records)
                self._sp_slot_records.append(
                    (name, stream_name, flat, flat + view.parallelism)
                )
                entries.append((stream_name, flat))
                sp_gather.append(
                    np.arange(view.start, view.stop, dtype=np.intp)
                )
                sp_alpha_flat.append(
                    np.full(view.parallelism, view.logic.alphas[stream_name])
                )
                flat += view.parallelism
            self._sp_stream_slots[name] = entries
        self._sp_flat = flat
        self._sp_slot_gather = (
            np.concatenate(sp_gather)
            if sp_gather else np.empty(0, dtype=np.intp)
        )
        self._sp_slot_alpha_flat = (
            np.concatenate(sp_alpha_flat) if sp_alpha_flat else np.empty(0)
        )
        self._sp_slot_vals = np.zeros(self._sp_flat)
        self._sp_slot_sums = np.zeros(len(self._sp_slot_records))
        self._sp_sum_groups = _sum_groups(
            [(i, r[2], r[3]) for i, r in enumerate(self._sp_slot_records)]
        )
        uniq = np.unique(self._sp_slot_gather)
        self._sp_emit_injective = uniq.shape[0] == self._sp_slot_gather.shape[0]

        self._b_slot_records: list[tuple[str, str, int, int]] = []
        self._b_stream_slots: dict[str, list[tuple[str, int]]] = {}
        self._b_slot_key: dict[tuple[str, str], int] = {}
        b_gather: list[np.ndarray] = []
        b_alpha_base: list[float] = []
        b_slot_of_flat: list[np.ndarray] = []
        flat = 0
        level_slot_flat: list[tuple[int, int]] = []
        level_slot_ranges: list[list[tuple[int, int, int]]] = [
            [] for _ in range(self._n_levels)
        ]
        cur_level = 1
        level_flat_start = 0
        for name in arena_names:
            view = self._bolts[name]
            if level[name] != cur_level:
                level_slot_flat.append((level_flat_start, flat))
                for _ in range(level[name] - cur_level - 1):
                    level_slot_flat.append((flat, flat))
                cur_level = level[name]
                level_flat_start = flat
            entries = []
            for stream_name in self._output_stream_names(name):
                sid = len(self._b_slot_records)
                self._b_slot_records.append(
                    (name, stream_name, flat, flat + view.parallelism)
                )
                self._b_slot_key[(name, stream_name)] = sid
                entries.append((stream_name, flat))
                b_gather.append(
                    np.arange(view.start, view.stop, dtype=np.intp)
                )
                b_alpha_base.append(view.logic.alphas[stream_name])
                b_slot_of_flat.append(
                    np.full(view.parallelism, sid, dtype=np.intp)
                )
                level_slot_ranges[cur_level - 1].append(
                    (sid, flat, flat + view.parallelism)
                )
                flat += view.parallelism
            self._b_stream_slots[name] = entries
        if self._n_levels:
            level_slot_flat.append((level_flat_start, flat))
            while len(level_slot_flat) < self._n_levels:
                level_slot_flat.append((flat, flat))
        self._b_flat = flat
        self._level_slot_flat = level_slot_flat
        self._b_slot_gather = (
            np.concatenate(b_gather)
            if b_gather else np.empty(0, dtype=np.intp)
        )
        self._b_slot_alpha_base = np.array(b_alpha_base)
        self._b_slot_of_flat = (
            np.concatenate(b_slot_of_flat)
            if b_slot_of_flat else np.empty(0, dtype=np.intp)
        )
        self._b_slot_vals = np.zeros(self._b_flat)
        self._b_slot_sums = np.zeros(len(self._b_slot_records))
        self._b_slot_alpha_eff = np.empty(len(self._b_slot_records))
        self._b_alpha_flat_buf = np.empty(self._b_flat)
        self._b_alpha_flat_const = (
            self._b_slot_alpha_base[self._b_slot_of_flat]
            if self._b_flat else np.empty(0)
        )
        self._level_sum_groups = [
            _sum_groups(ranges) for ranges in level_slot_ranges
        ]
        self._all_sum_groups = _sum_groups(
            [(i, r[2], r[3]) for i, r in enumerate(self._b_slot_records)]
        )
        self._all_emit_injective = (
            np.unique(self._b_slot_gather).shape[0]
            == self._b_slot_gather.shape[0]
        )

        # --- routing edges, compiled flat ------------------------------
        # Global edge order = [spout edges in spout×outputs order] then
        # [bolt edges in processing-order×outputs order]; contributions
        # into any one destination element must land in exactly this
        # order.  Spout edges apply as one group before any bolt level;
        # bolt edges group by destination level, applied just before that
        # level drains (transparent) or after the single pass (finite).
        sp_dest: list[np.ndarray] = []
        sp_slot: list[np.ndarray] = []
        sp_shares: list[np.ndarray] = []
        for name in self._spout_names:
            for stream in topology.outputs(name):
                sid = None
                for i, rec in enumerate(self._sp_slot_records):
                    if rec[0] == name and rec[1] == stream.name:
                        sid = i
                        break
                dest = self._bolts[stream.destination]
                shares = self._shares(stream)
                sp_dest.append(np.arange(dest.start, dest.stop, dtype=np.intp))
                sp_slot.append(
                    np.full(dest.parallelism, sid, dtype=np.intp)
                )
                sp_shares.append(np.asarray(shares, dtype=np.float64))
        bolt_edges: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = [
            [] for _ in range(self._n_levels)
        ]
        for name in self._bolt_order_names:
            for stream in topology.outputs(name):
                sid = self._b_slot_key[(name, stream.name)]
                dest = self._bolts[stream.destination]
                shares = self._shares(stream)
                bolt_edges[level[stream.destination] - 1].append(
                    (
                        np.arange(dest.start, dest.stop, dtype=np.intp),
                        np.full(dest.parallelism, sid, dtype=np.intp),
                        np.asarray(shares, dtype=np.float64),
                    )
                )
        all_dest = sp_dest + [e[0] for grp in bolt_edges for e in grp]
        counts = (
            np.bincount(np.concatenate(all_dest), minlength=max(n_b, 1))
            if all_dest else np.zeros(max(n_b, 1), dtype=np.intp)
        )

        def build_group(parts):
            if not parts:
                return None
            dest_idx = np.concatenate([p[0] for p in parts])
            slot_idx = np.concatenate([p[1] for p in parts])
            shares = np.concatenate([p[2] for p in parts])
            group = _EdgeGroup(dest_idx, slot_idx, shares)
            group.injective = bool((counts[dest_idx] == 1).all())
            return group

        self._sp_edge_group = build_group(
            list(zip(sp_dest, sp_slot, sp_shares))
        )
        self._edge_groups = [build_group(grp) for grp in bolt_edges]

        # --- headroom-clip operands per spout --------------------------
        self._clip_edges: dict[str, list[_ClipEdge]] = {}
        for name in self._spout_names:
            view = self._spouts[name]
            records = []
            for stream in topology.outputs(name):
                dest = self._bolts.get(stream.destination)
                if dest is None:
                    continue
                records.append(
                    _ClipEdge(
                        view.logic.alphas[stream.name],
                        np.asarray(self._shares(stream), dtype=np.float64),
                        self._b_queue[dest.start:dest.stop],
                        dest.logic.input_tuple_bytes,
                        dest.logic.capacity_tps * dt,
                    )
                )
            self._clip_edges[name] = records

        # --- static RNG draw layout ------------------------------------
        # Per tick, in scalar-engine order: each spout's rate noise (one
        # per instance), then per bolt in processing order its capacity
        # noise (one per instance) followed by one alpha draw per unique
        # output stream.  One batched ``normal(loc, scale)`` call over
        # the concatenated layout, tiled across a minute of ticks,
        # reproduces the draw stream of the per-call engine exactly.
        loc: list[np.ndarray] = []
        scale: list[np.ndarray] = []
        sp_idx: list[np.ndarray] = []
        sp_cols: list[np.ndarray] = []
        b_idx: list[np.ndarray] = []
        b_cols: list[np.ndarray] = []
        alpha_slots: list[int] = []
        alpha_cols: list[int] = []
        col = 0
        for name in self._spout_names:
            view = self._spouts[name]
            if view.logic.rate_noise > 0:
                p = view.parallelism
                loc.append(np.full(p, 1.0))
                scale.append(np.full(p, view.logic.rate_noise))
                sp_idx.append(np.arange(view.start, view.stop, dtype=np.intp))
                sp_cols.append(np.arange(col, col + p, dtype=np.intp))
                col += p
        for name in self._bolt_order_names:
            view = self._bolts[name]
            lg = view.logic
            if lg.capacity_noise > 0:
                p = view.parallelism
                loc.append(np.full(p, 1.0))
                scale.append(np.full(p, lg.capacity_noise))
                b_idx.append(np.arange(view.start, view.stop, dtype=np.intp))
                b_cols.append(np.arange(col, col + p, dtype=np.intp))
                col += p
            if lg.alpha_noise > 0:
                for stream_name in self._output_stream_names(name):
                    loc.append(np.zeros(1))
                    scale.append(np.full(1, lg.alpha_noise))
                    alpha_slots.append(self._b_slot_key[(name, stream_name)])
                    alpha_cols.append(col)
                    col += 1
        self._noise_k = col
        self._noise_chunk = int(round(_MINUTE / dt))
        if col:
            loc_tick = np.concatenate(loc)
            scale_tick = np.concatenate(scale)
            self._noise_loc_tile = np.tile(loc_tick, self._noise_chunk)
            self._noise_scale_tile = np.tile(scale_tick, self._noise_chunk)
        else:
            self._noise_loc_tile = np.empty(0)
            self._noise_scale_tile = np.empty(0)
        self._noise_buf = np.empty((0, col))
        self._noise_cursor = 0
        self._sp_noise_idx = (
            np.concatenate(sp_idx) if sp_idx else np.empty(0, dtype=np.intp)
        )
        self._sp_noise_cols = (
            np.concatenate(sp_cols) if sp_cols else np.empty(0, dtype=np.intp)
        )
        self._b_noise_idx = (
            np.concatenate(b_idx) if b_idx else np.empty(0, dtype=np.intp)
        )
        self._b_noise_cols = (
            np.concatenate(b_cols) if b_cols else np.empty(0, dtype=np.intp)
        )
        self._b_alpha_noise_slots = np.array(alpha_slots, dtype=np.intp)
        self._b_alpha_cols = np.array(alpha_cols, dtype=np.intp)
        # When every noisy instance sits in one contiguous run (the
        # common case: all spouts noisy, or all bolts noisy with no
        # alpha columns interleaved), the fancy scatter degenerates to a
        # slice copy — same values, no index gather per tick.
        self._sp_noise_span = _contiguous_span(
            self._sp_noise_idx, self._sp_noise_cols
        )
        self._b_noise_span = _contiguous_span(
            self._b_noise_idx, self._b_noise_cols
        )

        # --- per-minute metric accumulators (row views of 2D blocks,
        # mirroring the tick blocks so accumulation is one 2D add) ------
        self._acc_sp2d = np.zeros((5, n_sp))
        self._acc_sp_source = self._acc_sp2d[0]
        self._acc_sp_fetched = self._acc_sp2d[1]
        self._acc_sp_emitted = self._acc_sp2d[2]
        self._acc_sp_backlog = self._acc_sp2d[3]
        self._acc_sp_cpu = self._acc_sp2d[4]
        self._acc_sp_streams = np.zeros(self._sp_flat)
        self._acc_b2d = np.zeros((9, n_b))
        self._acc_b_arrivals = self._acc_b2d[0]
        self._acc_b_processed = self._acc_b2d[1]
        self._acc_b_emitted = self._acc_b2d[2]
        self._acc_b_failed = self._acc_b2d[3]
        self._acc_b_memory = self._acc_b2d[4]
        self._acc_b_latency = self._acc_b2d[5]
        self._acc_b_pending = self._acc_b2d[6]
        self._acc_b_cpu = self._acc_b2d[7]
        self._acc_b_bpms = self._acc_b2d[8]
        self._acc_b_streams = np.zeros(self._b_flat)

    def _compile_stmgr_index(self) -> None:
        """Per-(stream manager, component) local instance indices.

        Replaces the per-tick ``containers == cid`` mask rebuild in the
        enqueue path with construction-time index arrays; an ascending
        fancy-index add is bit-identical to the boolean-mask add.
        """
        self._stmgr_local_idx: dict[tuple[int, str], np.ndarray] = {}
        for name in self._bolt_names:
            containers = self._containers[name]
            for cid in self._stmgrs:
                idx = np.nonzero(containers == cid)[0]
                if idx.shape[0]:
                    self._stmgr_local_idx[(cid, name)] = idx.astype(np.intp)

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def set_source_rate(self, spout: str, tuples_per_minute: float) -> None:
        """Configure a spout's external source rate (whole component).

        The rate is divided evenly over the spout's instances, as the
        evaluation spout does.
        """
        if spout not in self._spouts:
            raise SimulationError(f"{spout!r} is not a spout in this topology")
        if tuples_per_minute < 0:
            raise SimulationError("source rate must be non-negative")
        view = self._spouts[spout]
        view.rate_tps = tuples_per_minute / _MINUTE / view.parallelism
        dt = self.config.tick_seconds
        sl = slice(view.start, view.stop)
        rate_dt = view.rate_tps * dt
        fetch_cap = view.logic.fetch_multiplier * view.rate_tps * dt
        self._sp_rate_dt[sl] = rate_dt
        self._sp_fetch_cap[sl] = fetch_cap
        self._sp_util_denom[sl] = fetch_cap if view.rate_tps > 0 else 1.0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def backpressure_active(self) -> bool:
        """True when any instance or stream manager is suppressing spouts."""
        if self._b_bp.any():
            return True
        if not self._use_stmgr:
            # Transparent stream managers never raise their own flag
            # (only _stmgr_enqueue sets it, on the finite path).
            return False
        return any(s.bp_flag for s in self._stmgrs.values())

    def backpressure_components(self) -> list[str]:
        """Names of bolt components with at least one raised flag."""
        return [
            name for name in self._bolt_names
            if self._b_bp[self._bolts[name].start:self._bolts[name].stop].any()
        ]

    def queue_tuples(self, component: str) -> np.ndarray:
        """Current per-instance queue lengths for one bolt (copy)."""
        if component not in self._bolts:
            raise SimulationError(f"{component!r} is not a bolt")
        view = self._bolts[component]
        return self._b_queue[view.start:view.stop].copy()

    def set_instance_capacity_factor(
        self, component: str, index: int, factor: float
    ) -> None:
        """Degrade (or restore) one bolt instance's processing capacity.

        ``factor`` multiplies the instance's nominal capacity: 1.0 is
        healthy, 0.5 a half-speed straggler (the paper's "failed
        resource" backpressure cause), 0.0 a dead instance.  Takes
        effect from the next tick.
        """
        if component not in self._bolts:
            raise SimulationError(f"{component!r} is not a bolt")
        if factor < 0:
            raise SimulationError("capacity factor must be non-negative")
        view = self._bolts[component]
        if not 0 <= index < view.parallelism:
            raise SimulationError(
                f"{component!r} has no instance index {index}"
            )
        self._b_factor[view.start + index] = factor

    def instance_capacity_factors(self, component: str) -> np.ndarray:
        """Current per-instance capacity factors for one bolt (copy)."""
        if component not in self._bolts:
            raise SimulationError(f"{component!r} is not a bolt")
        view = self._bolts[component]
        return self._b_factor[view.start:view.stop].copy()

    # ------------------------------------------------------------------
    # Fault control surface (used directly or via a FaultInjector)
    # ------------------------------------------------------------------
    def crash_instance(self, component: str, index: int) -> None:
        """Kill one instance: processing stops and its metrics go dark.

        A crashed bolt loses its in-memory pending queue (the tuples are
        gone with the process); tuples routed to it while it is down keep
        accumulating — the stream manager still buffers for the
        registered instance — so its queue refills and backpressure can
        raise exactly as in a real cluster.  A crashed spout stops
        fetching while its external source keeps producing backlog.
        From the crash tick until :meth:`restore_instance`, the
        instance's per-minute metrics are not written (missing minutes).
        """
        kind, view = self._component_view(component, index)
        g = view.start + index
        if kind == "bolt":
            self._b_queue[g] = 0.0
            self._b_bp[g] = False
            self._b_down[g] = True
        else:
            self._sp_down[g] = True

    def restore_instance(self, component: str, index: int) -> None:
        """Restart a crashed instance; it resumes with whatever queued."""
        kind, view = self._component_view(component, index)
        g = view.start + index
        if kind == "bolt":
            self._b_down[g] = False
        else:
            self._sp_down[g] = False

    def instance_down(self, component: str, index: int) -> bool:
        """True while an instance is crashed."""
        kind, view = self._component_view(component, index)
        g = view.start + index
        if kind == "bolt":
            return bool(self._b_down[g])
        return bool(self._sp_down[g])

    def _component_view(
        self, component: str, index: int
    ) -> tuple[str, "_SpoutView | _BoltView"]:
        view = self._bolts.get(component)
        kind = "bolt"
        if view is None:
            view = self._spouts.get(component)
            kind = "spout"
        if view is None:
            raise SimulationError(
                f"{component!r} is not a component of this topology"
            )
        if not 0 <= index < view.parallelism:
            raise SimulationError(
                f"{component!r} has no instance index {index}"
            )
        return kind, view

    def stall_stream_manager(self, container_id: int) -> None:
        """Stall one container's stream manager.

        While stalled, the container's instances neither receive nor
        deliver tuples: bolts on it stop draining (their queues fill from
        upstream and raise backpressure) and spouts on it cannot emit.
        The instances stay alive, so their metrics keep reporting — the
        observable signature is a backpressure spike plus a throughput
        dip, not missing minutes.
        """
        if container_id not in self._stmgrs:
            raise SimulationError(f"no container with id {container_id}")
        self._stalled_containers.add(container_id)

    def resume_stream_manager(self, container_id: int) -> None:
        """Clear a stream-manager stall."""
        if container_id not in self._stmgrs:
            raise SimulationError(f"no container with id {container_id}")
        self._stalled_containers.discard(container_id)

    def set_metric_dropout(
        self,
        component: str | None = None,
        index: int | None = None,
        active: bool = True,
    ) -> None:
        """Start or stop a metrics-pipeline dropout.

        The topology keeps running; its per-minute samples are simply not
        written for the scoped entities — one instance, one component, or
        (both ``None``) the whole topology.  A scope is independent of
        any crash: an instance reports again only once it is neither
        crashed nor under an active scope.
        """
        if component is None:
            if index is not None:
                raise SimulationError(
                    "an instance-scoped dropout needs its component"
                )
        elif component not in self.topology.components:
            raise SimulationError(
                f"{component!r} is not a component of this topology"
            )
        elif index is not None and not (
            0 <= index < self.topology.parallelism(component)
        ):
            raise SimulationError(
                f"{component!r} has no instance index {index}"
            )
        if active:
            self._dropouts.add((component, index))
        else:
            self._dropouts.discard((component, index))

    @property
    def fault_log(self) -> list[tuple[float, str, object]]:
        """The injector's ``(seconds, action, event)`` log (empty without
        a fault plan)."""
        if self._injector is None:
            return []
        return self._injector.log

    def spout_backlog(self, spout: str) -> np.ndarray:
        """Current per-instance external backlog for one spout (copy)."""
        if spout not in self._spouts:
            raise SimulationError(f"{spout!r} is not a spout")
        view = self._spouts[spout]
        return self._sp_backlog[view.start:view.stop].copy()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, minutes: float) -> None:
        """Advance the simulation by a whole number of minutes."""
        self.run_seconds(minutes * _MINUTE)

    def run_seconds(self, seconds: float) -> None:
        """Advance the simulation by ``seconds`` (multiple of the tick)."""
        if seconds < 0:
            raise SimulationError("cannot run for negative time")
        dt = self.config.tick_seconds
        ticks = round(seconds / dt)
        if abs(ticks * dt - seconds) > 1e-6:
            raise SimulationError(
                f"run length {seconds}s is not a multiple of the tick ({dt}s)"
            )
        for _ in range(ticks):
            self._tick(dt)

    # ------------------------------------------------------------------
    # One tick
    # ------------------------------------------------------------------
    def _tick(self, dt: float) -> None:
        if self._injector is not None:
            self._injector.on_tick(self)
        bp_at_start = self.backpressure_active()
        row = self._scatter_noise()
        sp_blocked, b_blocked = self._blocked_masks()

        # Per-tick bolt capacity, whole arena: nominal × noise × factor,
        # clamped at zero, zeroed where crashed or stalled.
        cap = self._b_capacity
        np.multiply(self._b_cap_dt, self._b_noise, out=cap)
        cap *= self._b_factor
        np.maximum(0.0, cap, out=cap)
        if b_blocked is not None:
            np.copyto(cap, 0.0, where=b_blocked)

        alpha_flat = self._alpha_flat(row)
        if self._use_stmgr:
            # Finite stream managers: this tick's arrivals are whatever
            # the stream managers release from their queues; emissions
            # enqueue for later release (one-tick routing latency).
            self._stmgr_release(dt)
            outbox = self._b_outbox
            outbox.fill(0.0)
            self._spout_pass(bp_at_start, sp_blocked, dt)
            self._bolt_pass(0, self._n_b, 0, self._b_flat,
                            self._all_sum_groups, alpha_flat)
            if self._sp_edge_group is not None:
                self._apply_edges(
                    self._sp_edge_group, self._sp_slot_sums, outbox
                )
            for group in self._edge_groups:
                if group is not None:
                    self._apply_edges(group, self._b_slot_sums, outbox)
            self._stmgr_enqueue()
        else:
            # Transparent stream managers (the paper's assumption):
            # emissions are delivered within the tick, level by level.
            arrivals = self._b_arrivals
            arrivals.fill(0.0)
            self._spout_pass(bp_at_start, sp_blocked, dt)
            if self._sp_edge_group is not None:
                self._apply_edges(
                    self._sp_edge_group, self._sp_slot_sums, arrivals
                )
            for k in range(self._n_levels):
                group = self._edge_groups[k]
                if group is not None:
                    self._apply_edges(group, self._b_slot_sums, arrivals)
                a0, a1 = self._level_bounds[k]
                f0, f1 = self._level_slot_flat[k]
                self._bolt_pass(
                    a0, a1, f0, f1, self._level_sum_groups[k], alpha_flat
                )

        # Post-pass state growth and watermark flags (nothing reads
        # these mid-tick, so whole-arena updates are order-safe).
        if self._any_state:
            t = np.multiply(self._b_sbpp, self._b_processed, out=self._b_t1)
            t += self._b_state
            np.minimum(self._b_scap, t, out=self._b_state)
        np.multiply(self._b_queue, self._b_itb, out=self._b_pending)
        # The trigger fires when pending *reaches* the high watermark:
        # the spout headroom clip pins a saturated queue exactly at it,
        # which is precisely the state where a real stream manager has
        # already raised backpressure.
        self._b_bp = np.where(
            self._b_bp,
            self._b_pending > self._low,
            self._b_pending >= self._high_trigger,
        )

        self._record_tick(bp_at_start, dt)
        self._now += dt

    def _blocked_masks(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Instances unable to move tuples: crashed or on a stalled
        container.  ``None`` when nothing is blocked (the fast path)."""
        if self._stalled_containers:
            stalled = np.fromiter(self._stalled_containers, dtype=np.int64)
            sp = self._sp_down | np.isin(self._sp_containers, stalled)
            b = self._b_down | np.isin(self._b_containers, stalled)
            return (
                sp if sp.any() else None,
                b if b.any() else None,
            )
        return (
            self._sp_down if self._sp_down.any() else None,
            self._b_down if self._b_down.any() else None,
        )

    def _scatter_noise(self) -> np.ndarray | None:
        if self._noise_k == 0:
            return None
        cursor = self._noise_cursor
        if cursor >= self._noise_buf.shape[0]:
            self._noise_buf = self._rng.normal(
                self._noise_loc_tile, self._noise_scale_tile
            ).reshape(self._noise_chunk, self._noise_k)
            cursor = 0
        row = self._noise_buf[cursor]
        self._noise_cursor = cursor + 1
        if self._sp_noise_span is not None:
            i0, i1, c0, c1 = self._sp_noise_span
            self._sp_noise[i0:i1] = row[c0:c1]
        elif self._sp_noise_idx.shape[0]:
            self._sp_noise[self._sp_noise_idx] = row[self._sp_noise_cols]
        if self._b_noise_span is not None:
            i0, i1, c0, c1 = self._b_noise_span
            self._b_noise[i0:i1] = row[c0:c1]
        elif self._b_noise_idx.shape[0]:
            self._b_noise[self._b_noise_idx] = row[self._b_noise_cols]
        return row

    def _alpha_flat(self, row: np.ndarray | None) -> np.ndarray:
        """Per-flat-slot effective alphas for this tick's emissions."""
        if self._b_alpha_noise_slots.shape[0] == 0 or row is None:
            return self._b_alpha_flat_const
        eff = self._b_slot_alpha_eff
        np.copyto(eff, self._b_slot_alpha_base)
        draws = row[self._b_alpha_cols]
        np.add(1.0, draws, out=draws)
        np.maximum(0.0, draws, out=draws)
        eff[self._b_alpha_noise_slots] = (
            self._b_slot_alpha_base[self._b_alpha_noise_slots] * draws
        )
        eff.take(self._b_slot_of_flat, out=self._b_alpha_flat_buf)
        return self._b_alpha_flat_buf

    def _spout_pass(
        self,
        suppressed: bool,
        sp_blocked: np.ndarray | None,
        dt: float,
    ) -> None:
        source = self._sp_source
        np.multiply(self._sp_rate_dt, self._sp_noise, out=source)
        np.maximum(0.0, source, out=source)
        self._sp_backlog += source
        fetched = self._sp_fetched
        if suppressed:
            fetched.fill(0.0)
        else:
            np.minimum(self._sp_backlog, self._sp_fetch_cap, out=fetched)
            if sp_blocked is not None:
                np.copyto(fetched, 0.0, where=sp_blocked)
            for name in self._spout_names:
                view = self._spouts[name]
                if view.rate_tps <= 0.0:
                    continue
                clip = self._headroom_clip(view, fetched)
                if clip != 1.0:
                    fetched[view.start:view.stop] *= clip
        self._sp_backlog -= fetched
        vals = self._sp_slot_vals
        if self._sp_flat:
            np.multiply(
                fetched[self._sp_slot_gather],
                self._sp_slot_alpha_flat,
                out=vals,
            )
            emitted = self._sp_emitted
            emitted.fill(0.0)
            if self._sp_emit_injective:
                emitted[self._sp_slot_gather] = vals
            else:
                np.add.at(emitted, self._sp_slot_gather, vals)
            for out_idx, flat_idx, n, length in self._sp_sum_groups:
                self._sp_slot_sums[out_idx] = (
                    vals[flat_idx].reshape(n, length).sum(axis=1)
                )
        else:
            self._sp_emitted.fill(0.0)

    def _headroom_clip(self, view: _SpoutView, fetched: np.ndarray) -> float:
        """Clip factor keeping downstream queues at/below the high watermark.

        Models the intra-tick stall: a stream manager stops accepting spout
        tuples the instant a destination queue reaches the high watermark,
        so at most ``headroom + capacity*dt`` tuples can enter per tick.
        """
        clip = 1.0
        fsum = fetched[view.start:view.stop].sum()
        for edge in self._clip_edges[view.name]:
            total_out = fsum * edge.alpha
            if total_out <= 0:
                continue
            buf = edge.buf
            np.multiply(edge.dest_q, edge.itb, out=buf)
            np.subtract(self._hwm, buf, out=buf)
            np.maximum(0.0, buf, out=buf)
            buf /= edge.itb
            buf += edge.cap_dt
            per = edge.per
            per.fill(np.inf)
            denom = np.multiply(total_out, edge.shares, out=edge.denom)
            np.divide(buf, denom, out=per, where=edge.mask)
            clip = min(clip, float(per.min()))
        return max(0.0, min(1.0, clip))

    def _bolt_pass(
        self,
        a0: int,
        a1: int,
        f0: int,
        f1: int,
        sum_groups,
        alpha_flat: np.ndarray,
    ) -> None:
        """Drain and emit for one contiguous bolt-arena range."""
        if a1 <= a0:
            return
        queue = self._b_queue[a0:a1]
        queue += self._b_arrivals[a0:a1]
        processed = self._b_processed[a0:a1]
        np.minimum(queue, self._b_capacity[a0:a1], out=processed)
        queue -= processed
        failed = self._b_failed[a0:a1]
        np.multiply(processed, self._b_failrate[a0:a1], out=failed)
        np.subtract(processed, failed, out=self._b_successful[a0:a1])
        if f1 > f0:
            gather = self._b_slot_gather[f0:f1]
            vals = self._b_slot_vals[f0:f1]
            np.multiply(
                self._b_successful[gather], alpha_flat[f0:f1], out=vals
            )
            for out_idx, flat_idx, n, length in sum_groups:
                self._b_slot_sums[out_idx] = (
                    self._b_slot_vals[flat_idx].reshape(n, length).sum(axis=1)
                )

    def _emit_scatter(self) -> None:
        """Scatter this tick's flat slot emissions into the emit arena."""
        emitted = self._b_emitted
        emitted.fill(0.0)
        if not self._b_flat:
            return
        if self._all_emit_injective:
            emitted[self._b_slot_gather] = self._b_slot_vals
        else:
            np.add.at(emitted, self._b_slot_gather, self._b_slot_vals)

    def _apply_edges(
        self,
        group: _EdgeGroup,
        slot_sums: np.ndarray,
        target: np.ndarray,
    ) -> None:
        slot_sums.take(group.slot_idx, out=group.buf)
        group.buf *= group.shares
        if group.injective:
            target[group.dest_idx] = group.buf
        else:
            np.add.at(target, group.dest_idx, group.buf)

    def _stmgr_release(self, dt: float) -> None:
        """Release queued tuples from each stream manager, up to capacity.

        Release is proportional across everything a stream manager has
        queued for its local instances (FIFO in fluid terms).  Fills the
        per-tick arrival arena.
        """
        arrivals = self._b_arrivals
        arrivals.fill(0.0)
        budget = self.config.stmgr_capacity_tps * dt
        for stmgr in self._stmgrs.values():
            if stmgr.container_id in self._stalled_containers:
                continue  # a stalled stream manager releases nothing
            total = stmgr.queued_tuples()
            if total <= 0.0:
                continue
            fraction = min(1.0, budget / total)
            for component, pending in stmgr.pending.items():
                released = pending * fraction
                view = self._bolts[component]
                arrivals[view.start:view.stop] += released
                stmgr.pending[component] = pending - released

    def _stmgr_enqueue(self) -> None:
        """Queue this tick's emissions inside the destination stmgrs."""
        outbox = self._b_outbox
        for component in self._bolt_names:
            view = self._bolts[component]
            amounts = outbox[view.start:view.stop]
            if not np.any(amounts):
                continue
            for cid, stmgr in self._stmgrs.items():
                idx = self._stmgr_local_idx.get((cid, component))
                if idx is None:
                    continue
                pending = stmgr.pending.get(component)
                if pending is None:
                    pending = np.zeros(view.parallelism)
                    stmgr.pending[component] = pending
                pending[idx] += amounts[idx]
        high = self._high_trigger
        low = self._low
        for stmgr in self._stmgrs.values():
            queued_bytes = sum(
                float(pending.sum())
                * self._bolts[component].logic.input_tuple_bytes
                for component, pending in stmgr.pending.items()
            )
            if stmgr.bp_flag:
                stmgr.bp_flag = queued_bytes > low
            else:
                stmgr.bp_flag = queued_bytes >= high

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _record_tick(self, bp_at_start: bool, dt: float) -> None:
        # Whole-arena accumulation: every element sees the same IEEE-754
        # operation sequence the scalar engine's per-component loop
        # produced (counters: 0.0 + a_1 + ... + a_n; gauges:
        # 0.0 + v_1*dt + ...), so flushed per-minute values match bit
        # for bit.
        if self._n_sp:
            util = np.divide(
                self._sp_fetched, self._sp_util_denom, out=self._sp_t1
            )
            moved = np.add(self._sp_fetched, self._sp_emitted, out=self._sp_t2)
            np.multiply(self._sp_gcpt, moved, out=moved)
            moved /= dt
            cpu = np.multiply(self._sp_worker, util, out=self._sp_cpu_dt)
            cpu += moved
            np.multiply(self._sp_backlog, dt, out=self._sp_backlog_dt)
            cpu *= dt
            self._acc_sp2d += self._sp_tick2d
            self._acc_sp_streams += self._sp_slot_vals
        if self._n_b:
            self._emit_scatter()
            util = np.divide(
                self._b_processed, self._b_cap_dt, out=self._b_t1
            )
            np.minimum(1.0, util, out=util)
            moved = np.add(self._b_arrivals, self._b_emitted, out=self._b_t2)
            np.multiply(self._b_gcpt, moved, out=moved)
            moved /= dt
            cpu = np.multiply(self._b_worker, util, out=self._b_cpu_dt)
            cpu += moved
            memory = np.add(
                self._b_base_mem, self._b_pending, out=self._b_memory_dt
            )
            memory += self._b_state
            memory *= dt
            eff = np.multiply(self._b_captps, self._b_factor, out=self._b_t4)
            np.maximum(1e-9, eff, out=eff)
            latency = np.divide(self._b_queue, eff, out=self._b_latency_dt)
            latency *= 1000.0
            latency *= dt
            np.multiply(self._b_pending, dt, out=self._b_pending_dt)
            cpu *= dt
            np.multiply(self._b_bp, dt * 1000.0, out=self._b_bpms)
            self._acc_b2d += self._b_tick2d
            self._acc_b_streams += self._b_slot_vals
        if bp_at_start or self.backpressure_active():
            self._topology_bp_ms += dt * 1000.0
        self._minute_ticks += 1
        if self._minute_ticks >= self._ticks_per_minute:
            self._close_minute()


    def _compile_minute_layout(self) -> _MinuteLayout:
        """Build the per-minute series table: keys, owners and gathers.

        Series order is the store's series-creation order, which the
        golden fixtures pin: components in topological order, their
        instances in index order, and per instance the counters, the
        per-stream emit counters, the gauges, then
        ``backpressure-time-ms``; the topology-level series closes the
        table.
        """
        topo = self.topology.name
        keys: list[MetricKey] = []
        owners: list[tuple[str, int] | None] = []
        instances: list[tuple[str, int, np.ndarray, int]] = []
        # id(accumulator) -> (accumulator, positions, gather)
        counter_specs: dict[int, tuple[np.ndarray, list, list]] = {}
        gauge_specs: dict[int, tuple[np.ndarray, list, list]] = {}
        bp_positions: list[int] = []
        bp_gather: list[int] = []

        def series(metric, tags, owner, specs=None, src=None, at=0):
            if specs is not None:
                _, positions, gather = specs.setdefault(
                    id(src), (src, [], [])
                )
                positions.append(len(keys))
                gather.append(at)
            keys.append(MetricKey.of(metric, tags))
            owners.append(owner)

        for name in self._order:
            view = self._spouts.get(name)
            is_bolt = view is None
            if not is_bolt:
                down = self._sp_down
                counters = (
                    (MetricNames.SOURCE_COUNT, self._acc_sp_source),
                    (MetricNames.EXECUTE_COUNT, self._acc_sp_fetched),
                    (MetricNames.EMIT_COUNT, self._acc_sp_emitted),
                )
                stream_slots = self._sp_stream_slots[name]
                stream_acc = self._acc_sp_streams
                gauges = (
                    (MetricNames.BACKLOG_TUPLES, self._acc_sp_backlog),
                    (MetricNames.CPU_LOAD, self._acc_sp_cpu),
                )
            else:
                view = self._bolts[name]
                down = self._b_down
                counters = (
                    (MetricNames.RECEIVED_COUNT, self._acc_b_arrivals),
                    (MetricNames.EXECUTE_COUNT, self._acc_b_processed),
                    (MetricNames.EMIT_COUNT, self._acc_b_emitted),
                    (MetricNames.FAIL_COUNT, self._acc_b_failed),
                )
                stream_slots = self._b_stream_slots[name]
                stream_acc = self._acc_b_streams
                gauges = (
                    (MetricNames.MEMORY_BYTES, self._acc_b_memory),
                    (MetricNames.QUEUE_LATENCY_MS, self._acc_b_latency),
                    (MetricNames.PENDING_BYTES, self._acc_b_pending),
                    (MetricNames.CPU_LOAD, self._acc_b_cpu),
                )
            for i, container in enumerate(self._containers[name].tolist()):
                g = view.start + i
                owner = (name, i)
                instances.append((name, i, down, g))
                tags = {
                    "topology": topo,
                    "component": name,
                    "instance": f"{name}_{i}",
                    "container": str(container),
                }
                for metric, acc in counters:
                    series(metric, tags, owner, counter_specs, acc, g)
                for stream_name, base in stream_slots:
                    series(
                        MetricNames.STREAM_EMIT_COUNT,
                        {**tags, "stream": stream_name},
                        owner, counter_specs, stream_acc, base + i,
                    )
                for metric, acc in gauges:
                    series(metric, tags, owner, gauge_specs, acc, g)
                if is_bolt:
                    bp_positions.append(len(keys))
                    bp_gather.append(g)
                series(MetricNames.BACKPRESSURE_TIME_MS, tags, owner)
        series(
            MetricNames.TOPOLOGY_BACKPRESSURE_TIME_MS, {"topology": topo}, None
        )

        def gathers(specs):
            return [
                (
                    np.array(positions, dtype=np.intp),
                    np.array(gather, dtype=np.intp),
                    src,
                )
                for src, positions, gather in specs.values()
            ]

        return _MinuteLayout(
            keys=keys,
            owners=owners,
            instances=instances,
            out=np.zeros(len(keys)),
            counters=gathers(counter_specs),
            gauges=gathers(gauge_specs),
            bp_positions=np.array(bp_positions, dtype=np.intp),
            bp_gather=np.array(bp_gather, dtype=np.intp),
        )

    def _dark_owners(self, layout: _MinuteLayout) -> set:
        """Owners whose samples go missing this minute.

        An instance is dark while it is crashed (the down arenas) or
        under an active dropout scope; ``None`` — the topology-level
        series — only under the whole-topology scope.  Empty in the
        steady state.
        """
        scopes = self._dropouts
        if not (scopes or self._sp_down.any() or self._b_down.any()):
            return set()
        whole = (None, None) in scopes
        dark: set = {
            (component, index)
            for component, index, down, g in layout.instances
            if whole
            or down[g]
            or (component, None) in scopes
            or (component, index) in scopes
        }
        if whole:
            dark.add(None)
        return dark

    def _close_minute(self) -> None:
        """The metrics-manager role: hand the closing minute to the store.

        Counters are sums over the minute, gauges time-averages,
        backpressure milliseconds clamp at one minute.  Every close fills
        the same ``out`` vector over the same keys; only the delivery
        differs.  Once the store has resolved the layout's series into a
        prepared batch, a minute nobody else wrote into and nobody is
        dark in is appended through it.  Any other minute — the first,
        one after a foreign write moved the topology's ``data_version``,
        one with dark owners — goes keyed, minus the dark owners'
        series (missing minutes, which a fixed batch cannot express), and
        a complete keyed minute resolves the batch again.
        """
        layout = self._layout
        if layout is None:
            layout = self._layout = self._compile_minute_layout()
        out = layout.out
        for positions, gather, src in layout.counters:
            out[positions] = src[gather]
        for positions, gather, src in layout.gauges:
            out[positions] = src[gather] / _MINUTE
        ceiling = _MINUTE * 1000.0
        out[layout.bp_positions] = np.minimum(
            self._acc_b_bpms[layout.bp_gather], ceiling
        )
        out[-1] = min(self._topology_bp_ms, ceiling)
        values = out.tolist()

        store = self._store
        topo = self.topology.name
        timestamp = self._minute_start
        dark = self._dark_owners(layout)
        prepared = (
            self._batch is not None
            and not dark
            and store.data_version(topo) == self._store_token
        )
        if prepared:
            store.append_minute_batch(
                self._batch, timestamp, values, topology=topo
            )
        else:
            raise_first_error(
                store.apply_sample_batch(
                    [
                        (key, timestamp, value)
                        for key, owner, value in zip(
                            layout.keys, layout.owners, values
                        )
                        if owner not in dark
                    ]
                )
            )
        if not dark:
            # A complete minute leaves the batch resolved and the token
            # at what this simulation itself just wrote.
            if not prepared:
                try:
                    self._batch = store.make_minute_batch(layout.keys)
                except MetricsError:
                    # A series is gone again (the store was cleared
                    # under us): the next complete keyed minute
                    # recreates it and resolves the batch.
                    self._batch = None
            self._store_token = store.data_version(topo)

        self._acc_sp2d.fill(0.0)
        self._acc_sp_streams.fill(0.0)
        self._acc_b2d.fill(0.0)
        self._acc_b_streams.fill(0.0)
        self._topology_bp_ms = 0.0
        self._minute_ticks = 0
        self._minute_start += int(_MINUTE)
