"""Deterministic fault schedules: what goes wrong, where, and when.

A :class:`FaultPlan` is an immutable, seeded schedule of
:class:`FaultEvent` entries.  Four fault classes cover the degraded
conditions Caladrius must model (and its consumers must survive):

``crash``
    An instance process dies at ``at_seconds`` and is restarted after
    ``duration_seconds`` (``None`` = never).  A crashed bolt loses its
    pending queue; a crashed instance stops processing *and* stops
    reporting metrics, so its minutes are missing from the store —
    the gap-containing windows the calibration tier must tolerate.
``straggler``
    An instance runs at ``factor`` of its nominal capacity for the
    window — the paper's "failed resource" backpressure cause.
``stmgr_stall``
    One container's stream manager stops moving tuples: its instances
    neither receive nor deliver, upstream queues fill, and backpressure
    spikes for the duration.
``metric_dropout``
    The metrics pipeline (not the topology) fails: per-minute series for
    a component — or the whole topology when ``component`` is ``None`` —
    are simply not written for the window.

Plans are fully deterministic: explicit events are explicit, and
:meth:`FaultPlan.randomized` derives its schedule from a dedicated
``numpy`` generator seeded by ``seed`` alone, so the same seed always
produces byte-identical schedules (and therefore byte-identical
simulations).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import FaultError
from repro.heron.packing import PackingPlan
from repro.heron.topology import LogicalTopology

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "load_fault_plan",
    "single_event_plan",
]

_MINUTE = 60.0

KIND_CRASH = "crash"
KIND_STRAGGLER = "straggler"
KIND_STMGR_STALL = "stmgr_stall"
KIND_METRIC_DROPOUT = "metric_dropout"
KINDS = (KIND_CRASH, KIND_STRAGGLER, KIND_STMGR_STALL, KIND_METRIC_DROPOUT)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Field relevance depends on ``kind``:

    * ``crash`` / ``straggler`` — ``component`` and ``index`` name the
      instance; ``straggler`` additionally needs ``factor`` in [0, 1).
    * ``stmgr_stall`` — ``container`` names the container.
    * ``metric_dropout`` — ``component`` (optionally with ``index``)
      scopes the dropout; both ``None`` blacks out the whole topology.

    ``duration_seconds`` is the window length; ``None`` means the fault
    never clears (a crash with no restart, a permanent dropout).
    """

    at_seconds: float
    kind: str
    component: str | None = None
    index: int | None = None
    container: int | None = None
    duration_seconds: float | None = None
    factor: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; known: {list(KINDS)}"
            )
        if self.at_seconds < 0:
            raise FaultError("at_seconds must be non-negative")
        if self.duration_seconds is not None and self.duration_seconds <= 0:
            raise FaultError("duration_seconds must be positive or None")
        if self.kind in (KIND_CRASH, KIND_STRAGGLER):
            if self.component is None or self.index is None:
                raise FaultError(
                    f"{self.kind} events need both component and index"
                )
        if self.kind == KIND_STRAGGLER:
            if self.factor is None or not 0.0 <= self.factor < 1.0:
                raise FaultError("straggler factor must be in [0, 1)")
        if self.kind == KIND_STMGR_STALL and self.container is None:
            raise FaultError("stmgr_stall events need a container id")
        if self.index is not None and self.index < 0:
            raise FaultError("index must be non-negative")

    def sort_key(self) -> tuple:
        """Total order over events (start time first), None-safe."""
        return (
            self.at_seconds,
            self.kind,
            self.component or "",
            -1 if self.index is None else self.index,
            -1 if self.container is None else self.container,
            float("inf") if self.duration_seconds is None
            else self.duration_seconds,
            -1.0 if self.factor is None else self.factor,
        )

    @property
    def ends_at(self) -> float:
        """Absolute end time, ``inf`` for permanent faults."""
        if self.duration_seconds is None:
            return float("inf")
        return self.at_seconds + self.duration_seconds

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "FaultEvent":
        """Build one event from a mapping (the YAML event shape).

        Times may be given as ``at_seconds``/``duration_seconds`` or the
        friendlier ``at_minutes``/``duration_minutes``.
        """
        if not isinstance(raw, Mapping):
            raise FaultError(f"fault event must be a mapping, got {raw!r}")
        data = dict(raw)
        kind = data.pop("kind", None)
        if kind is None:
            raise FaultError(f"fault event {raw!r} has no 'kind'")
        at = _pop_time(data, "at", required=True)
        duration = _pop_time(data, "duration", required=False)
        known = {"component", "index", "container", "factor"}
        unknown = set(data) - known
        if unknown:
            raise FaultError(
                f"unknown fault event fields {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        return cls(
            at_seconds=at,
            kind=str(kind),
            duration_seconds=duration,
            **{k: data.get(k) for k in known},
        )


def _pop_time(
    data: dict[str, Any], prefix: str, required: bool
) -> float | None:
    seconds = data.pop(f"{prefix}_seconds", None)
    minutes = data.pop(f"{prefix}_minutes", None)
    if seconds is not None and minutes is not None:
        raise FaultError(
            f"give either {prefix}_seconds or {prefix}_minutes, not both"
        )
    if seconds is None and minutes is None:
        if required:
            raise FaultError(
                f"fault event needs {prefix}_seconds or {prefix}_minutes"
            )
        return None
    value = float(seconds if seconds is not None else minutes * _MINUTE)
    return value


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, deterministic schedule of fault events.

    Events are kept sorted by start time (stable on the full event
    tuple), so iteration order — and therefore injection order — is a
    pure function of the plan's contents.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=FaultEvent.sort_key))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "FaultPlan":
        """Build a plan from a mapping with ``events`` (and ``seed``)."""
        if not isinstance(raw, Mapping):
            raise FaultError("fault plan must be a mapping")
        section = raw.get("faults", raw)
        if not isinstance(section, Mapping):
            raise FaultError("'faults' section must be a mapping")
        events = section.get("events", [])
        if not isinstance(events, Sequence) or isinstance(events, str):
            raise FaultError("'events' must be a list of event mappings")
        seed = section.get("seed", 0)
        if not isinstance(seed, int):
            raise FaultError("'seed' must be an integer")
        return cls(
            events=tuple(FaultEvent.from_dict(e) for e in events),
            seed=seed,
        )

    @classmethod
    def randomized(
        cls,
        topology: LogicalTopology,
        packing: PackingPlan,
        duration_minutes: float,
        seed: int = 0,
        crashes: int = 1,
        stragglers: int = 1,
        stalls: int = 0,
        dropouts: int = 1,
        straggler_factor: float = 0.3,
        mean_fault_minutes: float = 2.0,
    ) -> "FaultPlan":
        """A seeded random schedule over one topology's entities.

        Deterministic: the schedule is a pure function of the arguments.
        Events start in the middle 80% of the run (so warmup minutes stay
        clean) and last ~``mean_fault_minutes`` each, clamped to end
        before the run does when possible.
        """
        if duration_minutes <= 0:
            raise FaultError("duration_minutes must be positive")
        for name, value in (("crashes", crashes), ("stragglers", stragglers),
                            ("stalls", stalls), ("dropouts", dropouts)):
            if value < 0:
                raise FaultError(f"{name} must be non-negative")
        rng = np.random.default_rng(seed)
        total_seconds = duration_minutes * _MINUTE
        bolts = [b for b in topology.bolts()]
        containers = sorted(c.container_id for c in packing.containers)
        components = list(topology.components)
        events: list[FaultEvent] = []

        def start_and_length() -> tuple[float, float]:
            start = float(
                rng.uniform(0.1 * total_seconds, 0.9 * total_seconds)
            )
            length = float(
                max(_MINUTE, rng.exponential(mean_fault_minutes * _MINUTE))
            )
            length = min(length, max(_MINUTE, total_seconds - start))
            # Snap to whole seconds so schedules are tick-friendly.
            return round(start), round(length)

        def pick_instance() -> tuple[str, int]:
            spec = bolts[int(rng.integers(len(bolts)))]
            return spec.name, int(rng.integers(spec.parallelism))

        if (crashes or stragglers) and not bolts:
            raise FaultError("topology has no bolts to crash or slow down")
        for _ in range(crashes):
            component, index = pick_instance()
            start, length = start_and_length()
            events.append(FaultEvent(
                at_seconds=start, kind=KIND_CRASH,
                component=component, index=index, duration_seconds=length,
            ))
        for _ in range(stragglers):
            component, index = pick_instance()
            start, length = start_and_length()
            events.append(FaultEvent(
                at_seconds=start, kind=KIND_STRAGGLER,
                component=component, index=index, duration_seconds=length,
                factor=float(straggler_factor),
            ))
        for _ in range(stalls):
            container = containers[int(rng.integers(len(containers)))]
            start, length = start_and_length()
            events.append(FaultEvent(
                at_seconds=start, kind=KIND_STMGR_STALL,
                container=container, duration_seconds=length,
            ))
        for _ in range(dropouts):
            component = components[int(rng.integers(len(components)))]
            start, length = start_and_length()
            events.append(FaultEvent(
                at_seconds=start, kind=KIND_METRIC_DROPOUT,
                component=component, duration_seconds=length,
            ))
        return cls(events=tuple(events), seed=seed)


def single_event_plan(
    kind: str,
    at_seconds: float,
    duration_seconds: float,
    component: str | None = None,
    index: int | None = None,
    container: int | None = None,
    factor: float | None = None,
    seed: int = 0,
) -> FaultPlan:
    """A validated one-event plan — the scenario-matrix building block.

    Each matrix cell injects exactly one canonical fault so per-cell
    calibration error is attributable to one degradation mechanism;
    this helper keeps that construction in the faults layer, where
    :class:`FaultEvent` validation lives.
    """
    event = FaultEvent(
        at_seconds=at_seconds,
        kind=kind,
        component=component,
        index=index,
        container=container,
        duration_seconds=duration_seconds,
        factor=factor,
    )
    return FaultPlan(events=(event,), seed=seed)


def load_fault_plan(
    source: str | Path | Mapping[str, Any],
    topology: LogicalTopology | None = None,
    packing: PackingPlan | None = None,
    duration_minutes: float | None = None,
) -> FaultPlan:
    """Load a fault plan from YAML (path) or a mapping, the CLI entry.

    Document shape (the CLI ``--faults`` format)::

        faults:
          seed: 7
          events:
            - {kind: crash, at_minutes: 2, duration_minutes: 1,
               component: splitter, index: 0}
            - {kind: straggler, at_minutes: 1, duration_minutes: 3,
               component: counter, index: 2, factor: 0.4}
            - {kind: stmgr_stall, at_minutes: 4, duration_minutes: 1,
               container: 1}
            - {kind: metric_dropout, at_minutes: 3,
               duration_minutes: 2, component: counter}

    Besides explicit ``events``, the document may carry a ``randomized``
    section (counts per fault class) which is materialised
    deterministically from the plan's ``seed`` — this needs the topology,
    packing plan and run length::

        faults:
          seed: 13
          randomized: {crashes: 2, stragglers: 1, dropouts: 1}
          events: []          # explicit events merge with the random ones
    """
    if isinstance(source, Mapping):
        document: Any = dict(source)
    else:
        import yaml

        path = Path(source)
        if not path.exists():
            raise FaultError(f"fault plan file {path} does not exist")
        with open(path, encoding="utf8") as handle:
            document = yaml.safe_load(handle)
    if document is None:
        return FaultPlan()
    if not isinstance(document, Mapping):
        raise FaultError("fault plan document must be a mapping")
    plan = FaultPlan.from_dict(document)
    section = document.get("faults", document)
    spec = section.get("randomized")
    if spec is None:
        return plan
    if not isinstance(spec, Mapping):
        raise FaultError("'randomized' section must be a mapping")
    if topology is None or packing is None or duration_minutes is None:
        raise FaultError(
            "a 'randomized' fault section needs the topology, packing and "
            "run duration to materialise"
        )
    allowed = {"crashes", "stragglers", "stalls", "dropouts",
               "straggler_factor", "mean_fault_minutes"}
    unknown = set(spec) - allowed
    if unknown:
        raise FaultError(
            f"unknown randomized fields {sorted(unknown)} "
            f"(known: {sorted(allowed)})"
        )
    generated = FaultPlan.randomized(
        topology, packing, duration_minutes, seed=plan.seed, **dict(spec)
    )
    return FaultPlan(events=plan.events + generated.events, seed=plan.seed)
