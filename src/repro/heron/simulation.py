"""The discrete-time (fluid) Heron topology simulator.

This is the substrate that replaces the paper's Aurora/Heron cluster.  Each
one-second tick the engine:

1. lets every spout instance fetch from its external source and emit,
   unless topology backpressure is active — in which case spouts are
   suppressed and the external source accumulates a backlog (the paper's
   "data will begin to accumulate in the external system");
2. routes emissions to downstream instances according to each stream's
   grouping shares — within the tick through transparent stream
   managers, or, with finite-capacity ones, into per-container queues
   that each stream manager releases up to its budget on the next tick;
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
by topological *level* so delivery becomes one whole-array pass per
level — into the arrivals through transparent stream managers, into an
outbox that one containers × bolt-arena queue block takes up with
finite ones — and all per-tick RNG is pre-drawn in minute-sized
batches with a static draw layout and laid out per tick right after the
draw.  A tick makes only the numpy calls whose
results depend on the tick: every view, index plan and exact identity
(``× 0.0`` failures, an edge that cannot clip) is settled at
construction or per batch.  Every
floating-point operation sequence — including numpy's pairwise summation
trees and the RNG draw order — is arranged to be bit-identical to the
scalar engine this one replaced; the golden fixtures under ``tests/data``,
recorded from that engine, pin the contract.

A minute in which nothing queues — every minute the paper's linear
model branch describes — is stepped as one block of 60 ticks
(:meth:`HeronSimulation._free_minute`): the same formulas over rows with
a leading tick axis, exact because an empty queue under capacity stays
empty, and rejected (the minute then runs tick by tick on the same
noise rows) as soon as a row would queue.

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
]

_MINUTE = 60.0
#: The engine steps one second at a time, so a minute closes every 60
#: ticks.  The models see only the per-minute counters, never the step.
_TICKS_PER_MINUTE = 60


@dataclass(frozen=True)
class SimulationConfig:
    """Engine-wide parameters (the engine always steps one second).

    Parameters
    ----------
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

    high_watermark_bytes: float = 100e6
    low_watermark_bytes: float = 50e6
    stmgr_capacity_tps: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
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


class _SpoutView:
    """Per-component handle over the spout arenas (one arena slice)."""

    __slots__ = (
        "name", "logic", "parallelism", "start", "stop", "rate_tps", "fetched",
    )

    def __init__(self, name: str, parallelism: int, logic: SpoutLogic) -> None:
        self.name = name
        self.logic = logic
        self.parallelism = parallelism
        self.start = 0
        self.stop = 0
        self.rate_tps = 0.0  # configured source rate, per instance
        self.fetched = np.empty(0)  # view of the fetched arena slice


class _BoltView:
    """Per-component handle over the bolt arenas (one arena slice)."""

    __slots__ = ("name", "logic", "parallelism", "start", "stop")

    def __init__(self, name: str, parallelism: int, logic: ComponentLogic) -> None:
        self.name = name
        self.logic = logic
        self.parallelism = parallelism
        self.start = 0
        self.stop = 0


class _EdgeGroup:
    """One compiled batch of routing edges sharing an application point.

    ``dest_idx[i]`` is the bolt-arena index receiving
    ``slot_sums[slot_idx[i]] * shares[i]``; elements are laid out in
    global edge order so per-destination addition order matches the
    per-stream ``+=`` sequence of the scalar engine.  When every
    destination element receives exactly one contribution in the whole
    tick (``injective``), scatter-assign replaces ``np.add.at``.
    ``sums`` are the slot totals the group reads and ``target`` the
    array it delivers into, both of one frame.  Where construction
    already knows the answer, a pass skips the index work: ``src`` is
    the one slot total every element reads (a length-1 view that
    broadcasts) and ``out`` the contiguous target slice an injective
    group multiplies straight into.
    """

    __slots__ = (
        "dest_idx", "slot_idx", "shares", "sums", "target", "at", "buf",
        "injective", "src", "out",
    )

    def __init__(self, parts, counts, sums, target) -> None:
        self.dest_idx = np.concatenate([p[0] for p in parts])
        self.slot_idx = np.concatenate([p[1] for p in parts])
        self.shares = np.concatenate([p[2] for p in parts])
        self.sums = sums
        self.target = target
        self.at = (..., self.dest_idx)
        self.buf = np.empty(sums.shape[:-1] + self.dest_idx.shape)
        self.injective = bool((counts[self.dest_idx] == 1).all())
        self.src: np.ndarray | None = None
        self.out: np.ndarray | None = None
        if (self.slot_idx == self.slot_idx[0]).all():
            sid = int(self.slot_idx[0])
            self.src = sums[..., sid:sid + 1]
        span = _span(self.dest_idx)
        if self.injective and span is not None:
            self.out = target[..., span[0]:span[1]]


class _ClipEdge:
    """Precomputed operands for one spout output stream's headroom clip."""

    __slots__ = (
        "alpha", "shares", "max_share", "mask", "dest_q", "itb", "cap",
        "buf", "denom", "per",
    )

    def __init__(
        self,
        alpha: float,
        shares: np.ndarray,
        dest_q: np.ndarray,
        itb: float,
        cap: float,
    ) -> None:
        self.alpha = alpha
        self.shares = shares
        self.max_share = float(shares.max())
        self.mask = shares > 0
        self.dest_q = dest_q  # live view of the destination queue slice
        self.itb = itb
        self.cap = cap
        self.buf = np.empty(shares.shape[0])
        self.denom = np.empty(shares.shape[0])
        self.per = np.empty(shares.shape[0])


class _BoltRange:
    """Views of one topological level's bolt-arena range, which drains
    as a unit.

    Every field is fixed when a frame is bound: the frame's slices of
    the range, the range's flat emission slots ``f0:f1`` with their
    values ``vals``, ``emitting`` (the successful slice the slots read,
    or ``None`` when a bolt has several streams and ``gather`` picks
    them), its slot-total groups and the edge group delivering into the
    level (``None`` when nothing does).  ``queue`` is the arena's own.
    """

    __slots__ = (
        "frame", "queue", "arrivals", "processed", "capacity", "failed",
        "failrate", "successful", "f0", "f1", "gather", "emitting", "vals",
        "totals", "edges",
    )

    def __init__(self, sim: "HeronSimulation", frame: "_Frame", a0: int,
                 a1: int, f0: int, f1: int, slots, edges) -> None:
        self.frame = frame
        self.queue = sim._b_queue[a0:a1]
        self.arrivals = frame.b_arrivals[..., a0:a1]
        self.processed = frame.b_processed[..., a0:a1]
        self.capacity = frame.b_capacity[..., a0:a1]
        self.failed = frame.b_failed[..., a0:a1]
        self.failrate = sim._b_failrate[a0:a1]
        self.successful = frame.b_successful[..., a0:a1]
        self.f0 = f0
        self.f1 = f1
        self.gather = sim._b_slot_gather[f0:f1]
        span = _span(self.gather)
        self.emitting = (
            None if span is None
            else frame.b_successful[..., span[0]:span[1]]
        )
        self.vals = frame.b_vals[..., f0:f1]
        self.totals = _sum_groups(frame.b_vals, frame.b_sums, slots)
        self.edges = edges


class _Frame:
    """What one pass computes, as named views of flat rows of floats.

    The last axis of ``buf`` is the row: 1-D, the arena's own (one tick);
    ``(60, width)``, a free-flowing minute's block (a leading tick axis).
    The minute's accumulators are a third frame.  ``acc``, the row's
    leading part, is what a minute sums — the spouts' five per-tick
    quantities and stream emissions, the bolts' nine and slot emissions
    — so a tick adds one row into the accumulators and a block reduces
    its rows once; capacities, state, slot totals and scratch follow.
    """

    def __init__(self, sim: "HeronSimulation", ticks: tuple = ()) -> None:
        n_sp, n_b = sim._n_sp, sim._n_b
        spouts = ("source", "fetched", "emitted", "backlog", "cpu")
        bolts = (
            "arrivals", "processed", "emitted", "failed", "memory",
            "latency", "pending", "cpu", "bpms",
        )
        summed = [
            *((f"sp_{name}", n_sp) for name in spouts),
            ("sp_vals", 0 if sim._sp_emit_is_vals else sim._sp_flat),
            *((f"b_{name}", n_b) for name in bolts),
            ("b_vals", sim._b_flat),
        ]
        rest = [
            *((f"b_{name}", n_b) for name in ("capacity", "state", "t1",
                                              "t2", "t4")),
            ("b_successful", n_b if sim._any_failure else 0),
            ("sp_t1", n_sp), ("sp_t2", n_sp),
            ("sp_sums", len(sim._sp_slot_records)),
            ("b_sums", len(sim._b_slot_records)),
        ]
        self.buf = np.zeros(ticks + (sum(n for _, n in summed + rest),))
        self.acc = self.buf[..., :sum(n for _, n in summed)]
        at = 0
        for name, n in summed + rest:
            setattr(self, name, self.buf[..., at:at + n])
            at += n
        if sim._sp_emit_is_vals:
            # One stream per spout: the flat slots are the arena, in
            # order, so the slot values are the ``emitted`` row itself.
            self.sp_vals = self.sp_emitted
        if not sim._any_failure:
            # No failing bolt: ``failed`` stays 0.0 and ``successful`` is
            # ``processed`` (``x - x * 0.0`` is ``x`` for every count).
            self.b_successful = self.b_processed


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


def _span(idx: np.ndarray) -> tuple[int, int] | None:
    """``(lo, hi)`` when ``idx`` is ``arange(lo, hi)``, so ``a[idx]`` is
    the view ``a[lo:hi]``; ``None`` when it is empty or not a run."""
    n = idx.shape[0]
    if n == 0:
        return None
    lo = int(idx[0])
    if not np.array_equal(idx, np.arange(lo, lo + n, dtype=np.intp)):
        return None
    return (lo, lo + n)


def _concat(parts: list[np.ndarray], dtype=np.intp) -> np.ndarray:
    """``np.concatenate(parts)``, or an empty array when there are none."""
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def _sum_groups(
    vals: np.ndarray,
    sums: np.ndarray,
    slot_ranges: list[tuple[int, int, int]],
) -> list[tuple]:
    """Group (slot_id, flat_start, flat_stop) slots by segment length.

    Equal-length segments gathered into an ``(n, L)`` matrix and summed
    along axis 1 reproduce numpy's pairwise-summation tree of each
    contiguous segment exactly — the bit-identity requirement for the
    per-stream totals that feed the routing edges.  Each group is bound
    to the arrays a pass sums from and into: segments that are one run
    of ``vals`` are a fixed ``(n, L)`` view, slots that are one run of
    ``sums`` a slice reduced straight into; otherwise the pass gathers
    or scatters (:func:`_slot_totals`).  A block's rows lead with the
    tick axis, ``(ticks, n, L)``, and each row reduces by the same tree.
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
        rows = _span(flat_idx)
        totals = _span(out_idx)
        shape = vals.shape[:-1] + (len(items), length)
        groups.append((
            None if rows is None
            else vals[..., rows[0]:rows[1]].reshape(shape),
            flat_idx,
            shape,
            None if totals is None else sums[..., totals[0]:totals[1]],
            out_idx,
        ))
    return groups


# ``x.sum(axis=1)``, ``x.min()`` and ``x.any()`` without their
# Python-level wrappers: the same reductions (the same pairwise
# summation tree), one C call each.
_add_reduce = np.add.reduce
_min_reduce = np.minimum.reduce
_or_reduce = np.logical_or.reduce


def _slot_totals(vals: np.ndarray, sums: np.ndarray, plan) -> None:
    """Per-slot totals of a pass's flat emissions, into ``sums``.

    A gather goes through ``take``, whose result is C-ordered, so every
    row reduces along a contiguous axis by numpy's pairwise tree.
    """
    for rows, flat_idx, shape, totals, out_idx in plan:
        if rows is None:
            rows = vals.take(flat_idx, -1).reshape(shape)
        if totals is None:
            sums[..., out_idx] = _add_reduce(rows, -1)
        else:
            _add_reduce(rows, -1, out=totals)


def _apply_edges(group: _EdgeGroup) -> None:
    """Deliver a group's slot totals times shares into its target."""
    src = group.src
    if src is None:
        src = group.sums.take(group.slot_idx, -1, group.buf)
    if group.out is not None:
        np.multiply(src, group.shares, out=group.out)
        return
    np.multiply(src, group.shares, out=group.buf)
    if group.injective:
        group.target[group.at] = group.buf
    else:
        np.add.at(group.target, group.at, group.buf)


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
        return stream.grouping.shares(
            self.topology.parallelism(stream.destination)
        )

    def _compile_arenas(self) -> None:
        """Build the struct-of-arrays state and the compiled routing.

        Bolts are arena-ordered by topological level (stable within a
        level by scalar-engine processing order) so in-tick delivery
        advances level by level with whole-array ops.
        """
        topology = self.topology
        # Each container's stream manager is one row of the per-container
        # state, in packing order.
        self._row_of = {
            c.container_id: row
            for row, c in enumerate(self.packing.containers)
        }
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
        self._sp_down = np.zeros(n_sp, dtype=bool)
        self._sp_rate = np.zeros(n_sp)
        self._sp_fetch_cap = np.zeros(n_sp)
        self._sp_util_denom = np.ones(n_sp)
        self._sp_worker = np.zeros(n_sp)
        self._sp_gcpt = np.zeros(n_sp)
        self._sp_rows = np.zeros(n_sp, dtype=np.intp)
        for name, view in self._spouts.items():
            sl = slice(view.start, view.stop)
            self._sp_worker[sl] = view.logic.worker_cores
            self._sp_gcpt[sl] = view.logic.gateway_cores_per_tuple
            self._sp_rows[sl] = self._rows(name)

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
        level_bounds: list[tuple[int, int]] = []
        for k in range(1, self._n_levels + 1):
            members = [self._bolts[n] for n in arena_names if level[n] == k]
            level_bounds.append((members[0].start, members[-1].stop))

        self._b_queue = np.zeros(n_b)
        self._b_bp = np.zeros(n_b, dtype=bool)
        self._b_factor = np.ones(n_b)
        self._b_down = np.zeros(n_b, dtype=bool)
        self._finite_stmgrs = (
            self.config.stmgr_capacity_tps is not None and n_b > 0
        )
        self._b_outbox = np.zeros(n_b) if self._finite_stmgrs else None
        self._b_rows = np.zeros(n_b, dtype=np.intp)
        self._b_captps = np.zeros(n_b)
        self._b_itb = np.zeros(n_b)
        self._b_failrate = np.zeros(n_b)
        self._b_sbpp = np.zeros(n_b)
        self._b_scap = np.zeros(n_b)
        self._b_base_mem = np.zeros(n_b)
        self._b_worker = np.zeros(n_b)
        self._b_gcpt = np.zeros(n_b)
        self._any_state = False
        self._any_failure = False
        for name in arena_names:
            view = self._bolts[name]
            lg = view.logic
            sl = slice(view.start, view.stop)
            self._b_rows[sl] = self._rows(name)
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
            if lg.failure_rate > 0:
                self._any_failure = True

        # --- emission slots (one per unique output stream) -------------
        # Spout slots in spout insertion order; bolt slots in ARENA order
        # so each level's slots form one contiguous flat range.
        self._sp_slot_records: list[tuple[str, str, int, int]] = []
        self._sp_stream_slots: dict[str, list[tuple[str, int]]] = {}
        sp_slot_key: dict[tuple[str, str], int] = {}
        sp_gather: list[np.ndarray] = []
        sp_alpha_flat: list[np.ndarray] = []
        flat = 0
        for name in self._spout_names:
            view = self._spouts[name]
            entries = []
            for stream_name in self._output_stream_names(name):
                sp_slot_key[(name, stream_name)] = len(self._sp_slot_records)
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
        self._sp_slot_gather = _concat(sp_gather)
        self._sp_slot_alpha_flat = _concat(sp_alpha_flat, np.float64)
        self._sp_emit_is_vals = _span(self._sp_slot_gather) == (0, n_sp)
        self._sp_slot_ranges = [
            (i, r[2], r[3]) for i, r in enumerate(self._sp_slot_records)
        ]
        uniq = np.unique(self._sp_slot_gather)
        self._sp_emit_injective = uniq.shape[0] == self._sp_slot_gather.shape[0]

        self._b_slot_records: list[tuple[str, str, int, int]] = []
        self._b_stream_slots: dict[str, list[tuple[str, int]]] = {}
        self._b_slot_key: dict[tuple[str, str], int] = {}
        b_gather: list[np.ndarray] = []
        b_alpha_base: list[float] = []
        b_slot_of_flat: list[np.ndarray] = []
        flat = 0
        level_slot_ranges: list[list[tuple[int, int, int]]] = [
            [] for _ in range(self._n_levels)
        ]
        for name in arena_names:
            view = self._bolts[name]
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
                level_slot_ranges[level[name] - 1].append(
                    (sid, flat, flat + view.parallelism)
                )
                flat += view.parallelism
            self._b_stream_slots[name] = entries
        # A level's slots are one run of the flat slots (arena order); a
        # level of sinks has none.
        level_slot_flat = [
            (ranges[0][1], ranges[-1][2]) if ranges else (0, 0)
            for ranges in level_slot_ranges
        ]
        self._b_flat = flat
        self._b_slot_gather = _concat(b_gather)
        self._b_slot_alpha_base = np.array(b_alpha_base)
        self._b_slot_of_flat = _concat(b_slot_of_flat)
        # This tick's effective alpha per flat slot: the base alphas until
        # the first noise chunk, then a row of the chunk's layout.
        self._b_alpha_flat = (
            self._b_slot_alpha_base[self._b_slot_of_flat]
            if self._b_flat else np.empty(0)
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
        # level drains.
        sp_dest: list[np.ndarray] = []
        sp_slot: list[np.ndarray] = []
        sp_shares: list[np.ndarray] = []
        for name in self._spout_names:
            for stream in topology.outputs(name):
                sid = sp_slot_key[(name, stream.name)]
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

        self._edge_counts = counts
        # Every instance receiving exactly one contribution a tick means
        # the edges overwrite the whole target: no zero-fill first.
        self._edges_assign_all = bool((counts[:n_b] == 1).all())
        # The edges delivering into each level: every spout edge goes
        # with level 1 (spout sums are whole before any level drains),
        # a deeper level's bolt edges read only the levels below it.
        self._level_edges = [
            list(zip(sp_dest, sp_slot, sp_shares)), *bolt_edges[1:],
        ]

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
                        dest.logic.capacity_tps,
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
        if col:
            loc_tick = np.concatenate(loc)
            scale_tick = np.concatenate(scale)
            self._noise_loc_tile = np.tile(loc_tick, _TICKS_PER_MINUTE)
            self._noise_scale_tile = np.tile(scale_tick, _TICKS_PER_MINUTE)
        else:
            self._noise_loc_tile = np.empty(0)
            self._noise_scale_tile = np.empty(0)
        # The chunk's noise laid out in arena order (see _lay_out_noise);
        # the first tick draws.  Until then — for ever without noise —
        # the rows are the noise-free values, and a minute's rows too
        # (they broadcast over a block's tick axis).
        self._noise_cursor = _TICKS_PER_MINUTE
        self._sp_noise = self._sp_noise_rows = np.ones(n_sp)
        self._b_cap_noisy = self._b_cap_rows = self._b_captps
        self._b_alpha_rows = self._b_alpha_flat
        self._sp_noise_idx = _concat(sp_idx)
        self._sp_noise_cols = _concat(sp_cols)
        self._b_noise_idx = _concat(b_idx)
        self._b_noise_cols = _concat(b_cols)
        self._b_alpha_noise_slots = np.array(alpha_slots, dtype=np.intp)
        self._b_alpha_cols = np.array(alpha_cols, dtype=np.intp)

        # --- the arena's row and the minute's accumulators -------------
        self._level_bounds = list(zip(
            level_bounds, level_slot_flat, level_slot_ranges,
        ))
        self._f = self._bind(_Frame(self))
        self._acc = _Frame(self)
        for view in self._spouts.values():
            view.fetched = self._f.sp_fetched[view.start:view.stop]
        # A free-flowing minute's block frame, made by the first one.
        self._blk: _Frame | None = None

        # --- stream managers -------------------------------------------
        n_c = len(self._row_of)
        self._stalled = np.zeros(n_c, dtype=bool)
        self._stmgr_open = np.ones(n_c, dtype=bool)
        self._stmgr_bp = np.zeros(n_c, dtype=bool)
        self._sp_blocked: np.ndarray | None = None
        self._b_blocked: np.ndarray | None = None
        if self._finite_stmgrs:
            self._compile_stmgr_queues()

    def _bind(self, frame: _Frame) -> _Frame:
        """Compile a frame's passes: its spout slot totals and, level by
        level, the edge group delivering into it and its drain range.

        Edges deliver into the arrivals (transparent stream managers) or
        the outbox (finite ones, which queue them for later ticks; only
        the arena's frame runs with them).
        """
        target = self._b_outbox if self._finite_stmgrs else frame.b_arrivals
        frame.target = target
        sums = [frame.sp_sums] + [frame.b_sums] * len(self._level_edges)
        frame.sp_totals = _sum_groups(
            frame.sp_vals, frame.sp_sums, self._sp_slot_ranges
        )
        frame.ranges = [
            _BoltRange(
                self, frame, a0, a1, f0, f1, slots,
                _EdgeGroup(parts, self._edge_counts, group_sums, target)
                if parts else None,
            )
            for ((a0, a1), (f0, f1), slots), parts, group_sums in zip(
                self._level_bounds, self._level_edges, sums,
            )
        ]
        return frame

    def _rows(self, component: str) -> list[int]:
        """The stream-manager row of each of a component's instances."""
        return [self._row_of[c] for c in self._containers[component].tolist()]

    def _compile_stmgr_queues(self) -> None:
        """The finite stream managers' state: one queue block, containers
        × bolt arena, with each instance's queued tuples in its container's
        row (every other element of its column stays 0.0), per-container
        queued totals and watermark flags.

        A container's total is what its stream manager's per-component
        queues summed to: each component's own reduction over its arena
        slice of the row (zeros included, which fixes the summation
        tree), added up in the order the components first queued.
        """
        n_c, n_b = len(self._row_of), self._n_b
        self._stmgr_queue = np.zeros((n_c, n_b))
        self._stmgr_at = (self._b_rows, np.arange(n_b))
        self._stmgr_budget = self.config.stmgr_capacity_tps
        # Row 0 each component's part, in sum order, row 1 its bytes;
        # accumulated along the components, the last column is the totals.
        self._stmgr_sums = np.zeros((2, n_c, len(self._bolts)))
        acc = np.zeros((2, n_c, len(self._bolts)))
        self._stmgr_acc = acc
        self._stmgr_totals = acc[0, :, -1]
        self._stmgr_bytes = acc[1, :, -1]
        self._stmgr_order: list[_BoltView] = []
        self._stmgr_waiting = list(self._bolts.values())
        self._stmgr_sum_order()

    def _stmgr_sum_order(self) -> None:
        """Lay the totals' parts out in the order the components first
        queued (see _stmgr_join); those yet to queue, all 0.0, sum last."""
        order = self._stmgr_order + self._stmgr_waiting
        parts = self._stmgr_sums[0]
        self._stmgr_reductions = [
            (self._stmgr_queue[:, view.start:view.stop], parts[:, j])
            for j, view in enumerate(order)
        ]
        self._stmgr_itb = np.array(
            [view.logic.input_tuple_bytes for view in order]
        )

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
        sl = slice(view.start, view.stop)
        fetch_cap = view.logic.fetch_multiplier * view.rate_tps
        self._sp_rate[sl] = view.rate_tps
        self._sp_fetch_cap[sl] = fetch_cap
        self._sp_util_denom[sl] = fetch_cap if view.rate_tps > 0 else 1.0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def backpressure_active(self) -> bool:
        """True when any instance or stream manager is suppressing spouts."""
        return bool(_or_reduce(self._b_bp) or _or_reduce(self._stmgr_bp))

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
        self._block()

    def restore_instance(self, component: str, index: int) -> None:
        """Restart a crashed instance; it resumes with whatever queued."""
        kind, view = self._component_view(component, index)
        g = view.start + index
        if kind == "bolt":
            self._b_down[g] = False
        else:
            self._sp_down[g] = False
        self._block()

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
        self._stall(container_id, True)

    def resume_stream_manager(self, container_id: int) -> None:
        """Clear a stream-manager stall."""
        self._stall(container_id, False)

    def _stall(self, container_id: int, stalled: bool) -> None:
        row = self._row_of.get(container_id)
        if row is None:
            raise SimulationError(f"no container with id {container_id}")
        self._stalled[row] = stalled
        self._block()

    def _block(self) -> None:
        """Refresh what a crash, restore, stall or resume changes: the
        instances unable to move tuples — crashed or on a stalled
        container; ``None`` when there are none — and the stream managers
        free to release."""
        stalled = self._stalled
        sp = self._sp_down | stalled[self._sp_rows]
        b = self._b_down | stalled[self._b_rows]
        self._sp_blocked = sp if sp.any() else None
        self._b_blocked = b if b.any() else None
        np.logical_not(stalled, out=self._stmgr_open)

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
        return self._f.sp_backlog[view.start:view.stop].copy()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, minutes: float) -> None:
        """Advance the simulation by a whole number of minutes."""
        self.run_seconds(minutes * _MINUTE)

    def run_seconds(self, seconds: float) -> None:
        """Advance the simulation by a whole number of ``seconds``.

        A minute the call covers whole, from its boundary, is stepped as
        one block when it is free-flowing (:meth:`_free_minute`); every
        other second is one tick.
        """
        if seconds < 0:
            raise SimulationError("cannot run for negative time")
        ticks = round(seconds)
        if abs(ticks - seconds) > 1e-6:
            raise SimulationError(
                f"run length {seconds}s is not a multiple of the tick (1s)"
            )
        while ticks:
            if (
                ticks >= _TICKS_PER_MINUTE
                and not self._minute_ticks
                and self._free_minute()
            ):
                ticks -= _TICKS_PER_MINUTE
            else:
                self._tick()
                ticks -= 1

    # ------------------------------------------------------------------
    # One tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._injector is not None:
            self._injector.on_tick(self)
        bp_at_start = self.backpressure_active()
        if self._noise_k:
            cursor = self._noise_cursor
            if cursor == _TICKS_PER_MINUTE:
                self._lay_out_noise()
                cursor = 0
            self._noise_cursor = cursor + 1
            self._sp_noise = self._sp_noise_rows[cursor]
            self._b_cap_noisy = self._b_cap_rows[cursor]
            self._b_alpha_flat = self._b_alpha_rows[cursor]
        f = self._f
        self._noisy_rates(f, self._sp_noise, self._b_cap_noisy)

        # Emissions are delivered level by level: within the tick through
        # transparent stream managers (the paper's assumption), or into
        # the outbox through finite ones, whose queues release this
        # tick's arrivals first and take the outbox in after the drain
        # (one-tick routing latency).
        if not self._edges_assign_all:
            f.target.fill(0.0)
        if self._finite_stmgrs:
            self._stmgr_release()
        self._spout_pass(bp_at_start, self._sp_blocked)
        for bolts in f.ranges:
            if bolts.edges is not None:
                _apply_edges(bolts.edges)
            queue = bolts.queue
            queue += bolts.arrivals
            np.minimum(queue, bolts.capacity, out=bolts.processed)
            queue -= bolts.processed
            self._bolt_emit(bolts, self._b_alpha_flat)
        if self._finite_stmgrs:
            self._stmgr_enqueue()

        # Post-pass state growth and watermark flags (nothing reads
        # these mid-tick, so whole-arena updates are order-safe).
        if self._any_state:
            t = np.multiply(self._b_sbpp, f.b_processed, out=f.b_t1)
            t += f.b_state
            np.minimum(self._b_scap, t, out=f.b_state)
        np.multiply(self._b_queue, self._b_itb, out=f.b_pending)
        # The trigger fires when pending *reaches* the high watermark:
        # the spout headroom clip pins a saturated queue exactly at it,
        # which is precisely the state where a real stream manager has
        # already raised backpressure.
        self._b_bp = np.where(
            self._b_bp,
            f.b_pending > self._low,
            f.b_pending >= self._high_trigger,
        )

        self._record_tick(bp_at_start)
        self._now += 1.0

    def _free_minute(self) -> bool:
        """Step one free-flowing minute as a block of 60 ticks; ``False``,
        with nothing stepped, when the minute is not free-flowing.

        A minute is tried when nothing queues, nothing waits at a source
        and no flag is raised at its start, the stream managers are
        transparent and no fault is active or due in it.  Its ticks are
        computed as ``(60, n)`` rows from the minute's laid-out noise with
        the helpers a tick uses, and it is free-flowing when no row sees
        arrivals above capacity, a source above its fetch cap or a spout
        edge that may clip.  Then every tick is exact without the queue
        recurrence: ``queue += a; p = min(queue, cap); queue -= p`` gives
        ``p = a`` and an empty queue, so no flag rises, and a stateful
        bolt's ``min(scap, state + inc)`` is ``min(scap, cumsum)`` (the
        increments are non-negative).  A rejected minute runs tick by
        tick on the rows laid out here, so the RNG draws stay in order.
        """
        injector = self._injector
        faults_quiet = injector is None or not (
            injector._active
            or injector._pending
            and injector._pending[0].at_seconds < self._now + _MINUTE
        )
        if (
            not faults_quiet
            or self._finite_stmgrs
            or self._b_blocked is not None
            or self._sp_blocked is not None
            or _or_reduce(self._b_queue)
            or _or_reduce(self._f.sp_backlog)
            or _or_reduce(self._b_bp)
        ):
            return False
        if self._noise_k:
            self._lay_out_noise()
            self._noise_cursor = 0
        f = self._blk
        if f is None:
            f = self._blk = self._bind(_Frame(self, (_TICKS_PER_MINUTE,)))
        self._noisy_rates(f, self._sp_noise_rows, self._b_cap_rows)
        np.add(self._f.sp_backlog, f.sp_source, out=f.sp_backlog)
        if not (f.sp_backlog <= self._sp_fetch_cap).all():
            return False
        np.minimum(f.sp_backlog, self._sp_fetch_cap, out=f.sp_fetched)
        f.sp_backlog -= f.sp_fetched
        for name in self._spout_names:
            view = self._spouts[name]
            if view.rate_tps <= 0.0:
                continue
            fsum = _add_reduce(f.sp_fetched[:, view.start:view.stop], 1)
            for edge in self._clip_edges[name]:
                # _headroom_clip's skip test, on every row.
                if not (fsum * edge.alpha * edge.max_share <= edge.cap).all():
                    return False
        self._spout_emit(f)
        if not self._edges_assign_all:
            f.target.fill(0.0)
        for bolts in f.ranges:
            if bolts.edges is not None:
                _apply_edges(bolts.edges)
            if not (bolts.arrivals <= bolts.capacity).all():
                return False
            np.copyto(bolts.processed, bolts.arrivals)
            self._bolt_emit(bolts, self._b_alpha_rows)
        if self._any_state:
            state = np.multiply(self._b_sbpp, f.b_processed, out=f.b_state)
            state[0] += self._f.b_state
            np.add.accumulate(state, 0, out=state)
            np.minimum(self._b_scap, state, out=state)
        np.multiply(self._b_queue, self._b_itb, out=f.b_pending)
        self._tick_metrics(f)

        # Row after row, as the ticks add them (numpy reduces axis 0 of
        # a C-ordered block a row at a time; ``acc`` is never one wide).
        _add_reduce(f.acc, 0, out=self._acc.acc)
        np.copyto(self._f.buf, f.buf[-1])
        if self._noise_k:
            self._noise_cursor = _TICKS_PER_MINUTE
            self._sp_noise = self._sp_noise_rows[-1]
            self._b_cap_noisy = self._b_cap_rows[-1]
            self._b_alpha_flat = self._b_alpha_rows[-1]
        self._now += _MINUTE
        self._close_minute()
        return True

    def _noisy_rates(
        self, f: _Frame, sp_noise: np.ndarray, b_cap: np.ndarray
    ) -> None:
        """Source rates and bolt capacities from noise rows: nominal ×
        noise (× factor), clamped at zero, capacity zeroed where crashed
        or stalled."""
        source = np.multiply(self._sp_rate, sp_noise, out=f.sp_source)
        np.maximum(0.0, source, out=source)
        cap = np.multiply(b_cap, self._b_factor, out=f.b_capacity)
        np.maximum(0.0, cap, out=cap)
        if self._b_blocked is not None:
            np.copyto(cap, 0.0, where=self._b_blocked)

    def _lay_out_noise(self) -> None:
        """Draw the next minute of noise and lay it out per tick.

        One batched ``normal()`` call keeps the draw order; its columns
        are then scattered, once per chunk, into arena-ordered rows —
        spout rate noise, bolt capacity × noise, and each flat emission
        slot's effective alpha ``base · max(0, 1 + draw)`` — so a tick
        takes row views and does no index work.  Each row element sees
        the operations the per-tick scatter gave it, in the same order.
        """
        chunk = _TICKS_PER_MINUTE
        draws = self._rng.normal(
            self._noise_loc_tile, self._noise_scale_tile
        ).reshape(chunk, self._noise_k)
        sp = np.ones((chunk, self._n_sp))
        sp[:, self._sp_noise_idx] = draws[:, self._sp_noise_cols]
        self._sp_noise_rows = sp
        cap = np.ones((chunk, self._n_b))
        cap[:, self._b_noise_idx] = draws[:, self._b_noise_cols]
        np.multiply(self._b_captps, cap, out=cap)
        self._b_cap_rows = cap
        alpha = draws[:, self._b_alpha_cols]
        np.add(1.0, alpha, out=alpha)
        np.maximum(0.0, alpha, out=alpha)
        base = self._b_slot_alpha_base
        slots = self._b_alpha_noise_slots
        eff = np.tile(base, (chunk, 1))
        eff[:, slots] = base[slots] * alpha
        self._b_alpha_rows = eff[:, self._b_slot_of_flat]

    def _spout_pass(
        self,
        suppressed: bool,
        sp_blocked: np.ndarray | None,
    ) -> None:
        f = self._f
        backlog = f.sp_backlog
        backlog += f.sp_source
        fetched = f.sp_fetched
        if suppressed:
            fetched.fill(0.0)
        else:
            np.minimum(backlog, self._sp_fetch_cap, out=fetched)
            if sp_blocked is not None:
                np.copyto(fetched, 0.0, where=sp_blocked)
            for name in self._spout_names:
                view = self._spouts[name]
                if view.rate_tps <= 0.0:
                    continue
                clip = self._headroom_clip(view)
                if clip != 1.0:
                    view.fetched *= clip
        backlog -= fetched
        self._spout_emit(f)

    def _spout_emit(self, f: _Frame) -> None:
        """The spouts' slot emissions and slot totals from what they
        fetched."""
        if not self._sp_flat:
            return
        vals = f.sp_vals
        if self._sp_emit_is_vals:
            np.multiply(f.sp_fetched, self._sp_slot_alpha_flat, out=vals)
        else:
            gather = self._sp_slot_gather
            np.multiply(
                f.sp_fetched.take(gather, -1), self._sp_slot_alpha_flat,
                out=vals,
            )
            if self._sp_emit_injective:
                # Every pass writes the same elements; the rest stay 0.0.
                f.sp_emitted[..., gather] = vals
            else:
                f.sp_emitted.fill(0.0)
                np.add.at(f.sp_emitted, (..., gather), vals)
        _slot_totals(vals, f.sp_sums, f.sp_totals)

    def _headroom_clip(self, view: _SpoutView) -> float:
        """Clip factor keeping downstream queues at/below the high watermark.

        Models the intra-tick stall: a stream manager stops accepting spout
        tuples the instant a destination queue reaches the high watermark,
        so at most ``headroom + capacity`` tuples can enter per tick.

        An edge with ``total_out * max(share) <= cap`` cannot clip and
        is skipped: every ``buf_i >= cap`` (the headroom term is
        ``>= 0`` and rounding is monotone) and every ``denom_i <=
        total_out * max(share)``, so every ``per_i >= 1``.  An edge with
        nothing to send (``total_out <= 0 < cap``) is one of them.
        """
        clip = 1.0
        fsum = _add_reduce(view.fetched)
        for edge in self._clip_edges[view.name]:
            total_out = fsum * edge.alpha
            if total_out * edge.max_share <= edge.cap:
                continue
            buf = edge.buf
            np.multiply(edge.dest_q, edge.itb, out=buf)
            np.subtract(self._hwm, buf, out=buf)
            np.maximum(0.0, buf, out=buf)
            buf /= edge.itb
            buf += edge.cap
            per = edge.per
            per.fill(np.inf)
            denom = np.multiply(total_out, edge.shares, out=edge.denom)
            np.divide(buf, denom, out=per, where=edge.mask)
            clip = min(clip, float(_min_reduce(per)))
        return max(0.0, min(1.0, clip))

    def _bolt_emit(self, bolts: _BoltRange, alpha: np.ndarray) -> None:
        """A drained range's failures, slot emissions (``alpha`` is the
        flat slots' effective alphas) and slot totals."""
        if self._any_failure:
            np.multiply(bolts.processed, bolts.failrate, out=bolts.failed)
            np.subtract(bolts.processed, bolts.failed, out=bolts.successful)
        if bolts.f1 > bolts.f0:
            emitting = bolts.emitting
            if emitting is None:
                emitting = bolts.frame.b_successful.take(bolts.gather, -1)
            np.multiply(
                emitting, alpha[..., bolts.f0:bolts.f1], out=bolts.vals,
            )
            _slot_totals(
                bolts.frame.b_vals, bolts.frame.b_sums, bolts.totals
            )

    def _emit_scatter(self, f: _Frame) -> None:
        """Scatter a pass's flat slot emissions into its emit arena."""
        if not self._b_flat:
            return
        gather = self._b_slot_gather
        if self._all_emit_injective:
            # Every pass writes the same elements; the rest stay 0.0.
            f.b_emitted[..., gather] = f.b_vals
        else:
            f.b_emitted.fill(0.0)
            np.add.at(f.b_emitted, (..., gather), f.b_vals)

    def _stmgr_release(self) -> None:
        """Release queued tuples from every stream manager, up to capacity.

        Release is proportional across everything a stream manager has
        queued for its local instances (FIFO in fluid terms): each queued
        tuple's share is ``min(1, budget / total)``, none from a stalled
        or empty stream manager.  Fills the per-tick arrival arena, whose
        element is the one non-zero of its block column.
        """
        totals = self._stmgr_totals
        fraction = np.divide(
            self._stmgr_budget, totals, out=np.zeros(totals.shape),
            where=(totals > 0.0) & self._stmgr_open,
        )
        np.minimum(1.0, fraction, out=fraction)
        released = self._stmgr_queue * fraction[:, None]
        _add_reduce(released, 0, out=self._f.b_arrivals)
        self._stmgr_queue -= released

    def _stmgr_enqueue(self) -> None:
        """Queue this tick's emissions inside the destination stream
        managers, then total each one's queue and set its watermark flag."""
        outbox = self._b_outbox
        self._stmgr_queue[self._stmgr_at] += outbox
        if self._stmgr_waiting:
            self._stmgr_join(outbox)
        for rows, out in self._stmgr_reductions:
            _add_reduce(rows, 1, out=out)
        sums = self._stmgr_sums
        np.multiply(sums[0], self._stmgr_itb, out=sums[1])
        np.add.accumulate(sums, 2, out=self._stmgr_acc)
        queued_bytes = self._stmgr_bytes
        self._stmgr_bp = np.where(
            self._stmgr_bp,
            queued_bytes > self._low,
            queued_bytes >= self._high_trigger,
        )

    def _stmgr_join(self, outbox: np.ndarray) -> None:
        """Components join the totals' sum order the first tick their
        outbox slice holds a tuple, in insertion order within a tick."""
        queued = [
            view for view in self._stmgr_waiting
            if _or_reduce(outbox[view.start:view.stop])
        ]
        if queued:
            self._stmgr_order += queued
            self._stmgr_waiting = [
                view for view in self._stmgr_waiting if view not in queued
            ]
            self._stmgr_sum_order()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _record_tick(self, bp_at_start: bool) -> None:
        # One add of the tick's row into the accumulators: every element
        # sees the IEEE-754 operation sequence the scalar engine's
        # per-component loop produced (counters and gauges: 0.0 + a_1 +
        # ... + a_n), so flushed per-minute values match bit for bit.
        self._tick_metrics(self._f)
        self._acc.acc += self._f.acc
        if bp_at_start or self.backpressure_active():
            self._topology_bp_ms += 1000.0
        self._minute_ticks += 1
        if self._minute_ticks >= _TICKS_PER_MINUTE:
            self._close_minute()

    def _tick_metrics(self, f: _Frame) -> None:
        """A pass's per-tick CPU, memory, latency and backpressure
        readings (``+ state`` is skipped when no bolt is stateful)."""
        if self._n_sp:
            util = np.divide(f.sp_fetched, self._sp_util_denom, out=f.sp_t1)
            moved = np.add(f.sp_fetched, f.sp_emitted, out=f.sp_t2)
            np.multiply(self._sp_gcpt, moved, out=moved)
            cpu = np.multiply(self._sp_worker, util, out=f.sp_cpu)
            cpu += moved
        if self._n_b:
            self._emit_scatter(f)
            util = np.divide(f.b_processed, self._b_captps, out=f.b_t1)
            np.minimum(1.0, util, out=util)
            moved = np.add(f.b_arrivals, f.b_emitted, out=f.b_t2)
            np.multiply(self._b_gcpt, moved, out=moved)
            cpu = np.multiply(self._b_worker, util, out=f.b_cpu)
            cpu += moved
            memory = np.add(self._b_base_mem, f.b_pending, out=f.b_memory)
            if self._any_state:
                memory += f.b_state
            eff = np.multiply(self._b_captps, self._b_factor, out=f.b_t4)
            np.maximum(1e-9, eff, out=eff)
            latency = np.divide(self._b_queue, eff, out=f.b_latency)
            latency *= 1000.0
            np.multiply(self._b_bp, 1000.0, out=f.b_bpms)

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
        key_of = self._store.key_of
        totals = self._acc
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
            keys.append(key_of(metric, tags))
            owners.append(owner)

        for name in self._order:
            view = self._spouts.get(name)
            is_bolt = view is None
            if not is_bolt:
                down = self._sp_down
                counters = (
                    (MetricNames.SOURCE_COUNT, totals.sp_source),
                    (MetricNames.EXECUTE_COUNT, totals.sp_fetched),
                    (MetricNames.EMIT_COUNT, totals.sp_emitted),
                )
                stream_slots = self._sp_stream_slots[name]
                stream_acc = totals.sp_vals
                gauges = (
                    (MetricNames.BACKLOG_TUPLES, totals.sp_backlog),
                    (MetricNames.CPU_LOAD, totals.sp_cpu),
                )
            else:
                view = self._bolts[name]
                down = self._b_down
                counters = (
                    (MetricNames.RECEIVED_COUNT, totals.b_arrivals),
                    (MetricNames.EXECUTE_COUNT, totals.b_processed),
                    (MetricNames.EMIT_COUNT, totals.b_emitted),
                    (MetricNames.FAIL_COUNT, totals.b_failed),
                )
                stream_slots = self._b_stream_slots[name]
                stream_acc = totals.b_vals
                gauges = (
                    (MetricNames.MEMORY_BYTES, totals.b_memory),
                    (MetricNames.QUEUE_LATENCY_MS, totals.b_latency),
                    (MetricNames.PENDING_BYTES, totals.b_pending),
                    (MetricNames.CPU_LOAD, totals.b_cpu),
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
            self._acc.b_bpms[layout.bp_gather], ceiling
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

        self._acc.acc.fill(0.0)
        self._topology_bp_ms = 0.0
        self._minute_ticks = 0
        self._minute_start += int(_MINUTE)
