"""An in-memory, tag-indexed time-series metrics database.

This is the offline stand-in for Twitter's Cuckoo TSDB and the Heron
MetricsCache (paper Section III-C2).  Metrics are identified by a name plus
a tag mapping (for Heron metrics the tags are ``topology``, ``component``,
``instance``, ``container``).  The store supports point writes, range
queries, group-by aggregation across matching series, and retention
trimming — the full contract Caladrius's metrics interface needs.

Series are indexed by ``(name, topology tag)``: a read whose filter names
a ``topology`` walks that bucket only, and every other tag of the filter
is checked within it; a filter without one walks every series.
:meth:`MetricsStore.topology_frame` reads several metrics of one topology
in a single lock hold — what a calibration, the health gate and a sweep
artifact fit from.
"""

from __future__ import annotations

import json
import math
import re
import threading
from collections import deque
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType
from typing import Any

import numpy as np

from repro.errors import MetricsError
from repro.telemetry import Telemetry
from repro.timeseries.aggregation import rollup
from repro.timeseries.series import TimeSeries

__all__ = [
    "MetricKey",
    "MetricsStore",
    "MinuteBatch",
    "SeriesGroup",
    "TopologyFrame",
    "frame_sample",
    "raise_first_error",
    "write_fields",
    "write_head",
    "write_record",
]

#: The type rule's two refusals, raised wherever it is checked.
_NAME_RULE = "'name' must be a non-empty string"
_TAGS_RULE = "'tags' must map strings to strings"


@dataclass(frozen=True, slots=True, init=False)
class MetricKey:
    """Identity of one stored series: a metric name plus sorted tags.

    A key obeys :func:`write_fields`' type rule — a string name, tags
    mapping strings to strings — or is not built: construction raises
    :class:`~repro.errors.MetricsError`, so no series can exist (and be
    journaled) that WAL replay would refuse.  A store builds its keys
    through :meth:`MetricsStore.key_of`, which shares their strings and
    tag pairs.
    """

    name: str
    tags: tuple[tuple[str, str], ...]
    #: Value of the ``topology`` tag (``None`` when untagged): every write
    #: reads it to pick the ``data_version`` counter, so it is found once
    #: per key instead of through a tag dictionary per sample.
    topology: str | None = field(compare=False, repr=False)
    #: Value of the ``component`` tag, found once for the same reason: a
    #: topology frame groups thousands of keys by it under the store lock.
    component: str | None = field(compare=False, repr=False)
    #: ``hash((name, tags))``, computed once: a key is hashed on every
    #: series-dict lookup of every write.
    _hash: int = field(compare=False, repr=False)

    def __init__(
        self,
        name: str,
        tags: tuple[tuple[str, str], ...] = (),
        *,
        found: tuple[str | None, str | None] | None = None,
    ) -> None:
        # One pass over the tags checks the type rule and finds the two
        # tags kept as fields.  ``found`` — those two values — is
        # ``MetricsStore.key_of``'s alone: its own walk of the tags has
        # checked the rule already.
        if found is None:
            if not isinstance(name, str):
                raise MetricsError(_NAME_RULE)
            topology = component = None
            for tag, value in tags:
                if not isinstance(tag, str) or not isinstance(value, str):
                    raise MetricsError(_TAGS_RULE)
                if tag == "topology":
                    topology = value
                elif tag == "component":
                    component = value
        else:
            topology, component = found
        _set_name(self, name)
        _set_tags(self, tags)
        _set_topology(self, topology)
        _set_component(self, component)
        _set_hash(self, hash((name, tags)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: string hashes differ per process, so
        # a pickled key must not carry this process's cached hash.
        return MetricKey, (self.name, self.tags)

    @classmethod
    def of(cls, name: str, tags: Mapping[str, str] | None = None) -> "MetricKey":
        """Build a key from a name and an (unordered) tag mapping: a
        stand-alone key, for looking a series up.  A store builds the
        keys it holds through :meth:`MetricsStore.key_of`."""
        items = tuple(sorted((tags or {}).items()))
        return cls(name, items)

    def tag_dict(self) -> dict[str, str]:
        """The tags as a plain dictionary."""
        return dict(self.tags)

    def matches(self, name: str, tag_filter: Mapping[str, str]) -> bool:
        """True when names are equal and every filter tag matches."""
        if self.name != name:
            return False
        tags = self.tags
        return all(item in tags for item in tag_filter.items())


# The slots' own setters: a frozen key's fields are set past the
# ``__setattr__`` that refuses assignment, one call each.
_set_name = MetricKey.name.__set__
_set_tags = MetricKey.tags.__set__
_set_topology = MetricKey.topology.__set__
_set_component = MetricKey.component.__set__
_set_hash = MetricKey._hash.__set__


class _SeriesBuffer:
    """Mutable append buffer behind one stored series."""

    __slots__ = ("timestamps", "values", "journal_template", "_frozen")

    def __init__(self) -> None:
        self.timestamps: list[int] = []
        self.values: list[float] = []
        # Opaque per-series cache slot for subclasses: the durable store
        # parks its rendered WAL record template here, so the journaling
        # hot path pays an attribute read instead of a second keyed lookup.
        self.journal_template: bytes | None = None
        # Cached frozen view: rebuilding numpy arrays per read dominates
        # repeated-query cost (calibration reads every series several
        # times per sweep).  TimeSeries is immutable with read-only
        # arrays, so serving the same object is safe.  The buffer only
        # grows at its end between trims, so a view as long as the buffer
        # is a view of it: appends need not drop the cache, a trim does.
        self._frozen: TimeSeries | None = None

    def freeze(self) -> TimeSeries:
        frozen = self._frozen
        if frozen is None or len(frozen) != len(self.timestamps):
            frozen = self._frozen = TimeSeries(self.timestamps, self.values)
        return frozen

    def trim_before(self, cutoff: int) -> None:
        # Timestamps are sorted, so find the first index to keep.
        keep_from = 0
        for keep_from, ts in enumerate(self.timestamps):
            if ts >= cutoff:
                break
        else:
            keep_from = len(self.timestamps)
        if keep_from:
            self._frozen = None
        del self.timestamps[:keep_from]
        del self.values[:keep_from]


class MinuteBatch:
    """Pre-resolved append plan over a fixed set of series.

    Built by :meth:`MetricsStore.make_minute_batch` and consumed by
    :meth:`MetricsStore.append_minute_batch`: the keyed buffer lookups
    and the monotonicity bound are resolved once, so steady-state minute
    flushes cost two C-level loops instead of thousands of keyed
    writes.  Opaque to callers — hold it and hand it back, nothing else.

    A batch is only valid while no other writer touches its series; the
    simulator guards every use with a :meth:`MetricsStore.data_version`
    token and rebuilds the batch (after a slow keyed flush) whenever the
    token moved underneath it.
    """

    __slots__ = ("keys", "ts_lists", "val_lists", "last_ts")

    def __init__(self, keys: Sequence[MetricKey]) -> None:
        self.keys = list(keys)
        self.ts_lists: list[list[int]] = []
        self.val_lists: list[list[float]] = []
        self.last_ts: int | None = None


#: Interned keys (and registered record heads) a store may hold beyond
#: twice its live series: room for one large batch of new series
#: validated before any of them exists.
_INTERN_SLACK = 4096
#: Tag sets ``key_of`` remembers: an instance reports its metrics
#: together, so the last few dozen are the ones the next keys spell.
_TAG_SETS = 64
#: What ``key_of`` finds for a name it has no keys of (never written to).
_NO_KEYS: Mapping[tuple, MetricKey] = MappingProxyType({})
#: The ``_by_topology`` bucket of a (name, topology) with no series.
_NO_BUCKET = ((), ())
#: What no key's ``topology`` is: the run a batch's count starts with.
_NO_TOPOLOGY = object()

#: A write payload is *head + tail*: the head is every byte before the
#: last ``,"ts":`` (op, name and tags — the same bytes every minute a
#: series reports), the tail the marker, an integer, ``,"v":``, a number
#: and the closing brace.  The tail grammar is a subset of JSON's on
#: which ``int()``/``float()`` of the matched text equal what
#: ``frame_sample`` makes of the decoded record: JSON's integer (at most
#: 18 digits, under ``int()``'s digit limit) and JSON's number — no
#: space, sign, ``_``, leading zero, ``inf`` or ``nan`` that the
#: converters alone would let through — minus the integer ``-0``, which
#: decodes to ``0`` and so to ``0.0``, not ``float("-0")``.
_compact_json = json.JSONEncoder(separators=(",", ":")).encode
_isfinite = math.isfinite
_TS_KEY = b',"ts":'
_TAIL = re.compile(
    re.escape(_TS_KEY) + rb"(-?(?:0|[1-9][0-9]{0,17}))"
    rb',"v":(?!-0\})(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)\}'
)


def write_head(name: Any, tags: Mapping[Any, Any]) -> bytes:
    """A write record up to and including ``"ts":`` — its one renderer.

    Compact JSON in the journal's field order, byte for byte what
    ``json.dumps`` of the whole record starts with; the client encoder
    and the durable store's per-series template and fallback body all
    start from it.
    """
    return b'{"op":"write","name":%b,"tags":%b,"ts":' % (
        _compact_json(name).encode("utf8"),
        _compact_json(tags).encode("utf8"),
    )


def write_record(head: bytes, timestamp: int, value: float) -> bytes:
    """``head`` finished with a sample, as ``json.dumps`` would: ``repr``
    of a finite float is its JSON; ``inf``/``nan`` take ``json.dumps``'
    own spelling, the one ``json.loads`` reads back."""
    if math.isfinite(value):
        return head + b'%d,"v":%r}' % (timestamp, value)
    return head + b'%d,"v":%b}' % (timestamp, json.dumps(value).encode("utf8"))


def frame_sample(
    record: Any,
    body: bytes | str,
    key_of: Callable[[str, Mapping[str, str]], MetricKey] = MetricKey.of,
) -> tuple[MetricKey, int, float]:
    """Validate one decoded ingest frame into a ``(key, ts, value)`` sample.

    The batched ingest path hands client-framed payloads to the store —
    and a journaling store appends them to its log verbatim (modulo the
    spliced LSN prefix) — so this is the gate on what a frame may
    contain: a ``write`` record whose fields recovery can replay, and
    nothing that would corrupt the log — in particular no
    client-supplied ``lsn`` (a duplicate JSON key would shadow the
    server-assigned one on replay) and no non-finite value (``repr`` of
    ``inf``/``nan`` is not JSON).  ``record`` is what ``body`` (the
    payload, bytes or text) decodes to; ``key_of`` resolves the series
    key (a store passes its interning :meth:`MetricsStore.key_of`), and
    with it checks the tag rule.
    Raises :class:`~repro.errors.MetricsError` naming the defect.
    """
    if type(record) is not dict and not isinstance(record, Mapping):
        raise MetricsError("frame payload must be a JSON object")
    if record.get("op") != "write":
        raise MetricsError(f"unsupported frame op {record.get('op')!r}")
    if "lsn" in record:
        raise MetricsError(
            "frame must not carry an 'lsn' field; the server assigns LSNs"
        )
    if not record.get("name"):
        raise MetricsError("frame 'name' must be a non-empty string")
    name, tags, ts, value = write_fields(record)
    if not _isfinite(value) or body[:1] not in (b"{", "{"):
        _check_tags(tags)  # the tag rule's refusal comes first
        if not _isfinite(value):
            raise MetricsError("frame 'v' must be finite")
        # The LSN is spliced in after the opening brace.
        raise MetricsError("frame payload must be a compact JSON object")
    return key_of(name, tags), ts, value


def write_fields(
    record: Mapping[str, Any],
) -> tuple[str, Mapping[str, str], int, float]:
    """The type rules of a ``write`` record: ``(name, tags, ts, value)``.

    A string ``name``, ``tags`` mapping strings to strings (absent or
    ``null`` is no tags), and a ``ts`` and ``v`` that are JSON numbers —
    not strings, not booleans — with an integral-convertible ``ts``.
    :func:`frame_sample` applies them to every ingest frame and WAL
    replay to every record it decodes, and :class:`MetricKey` applies
    the name and tag rules to every key, so no writer can store a
    series that replay would refuse; the value rules on top (a
    non-empty name, a finite value, no ``lsn``) are the ingest gate's
    alone, because a store accepts, and so journals, such samples from
    its own writers.

    Each rule is checked once: the tags' strings are checked where the
    key is built (:meth:`MetricsStore.key_of`, which every caller goes
    on to), so here only a refused record walks them — first, because a
    bad tag is the refusal that wins over a bad ``ts`` or ``v``.
    Raises :class:`~repro.errors.MetricsError`.
    """
    name = record.get("name")
    if not isinstance(name, str):
        raise MetricsError(_NAME_RULE)
    tags = record.get("tags") or {}
    if type(tags) is not dict and not isinstance(tags, Mapping):
        raise MetricsError(_TAGS_RULE)
    ts = record.get("ts")
    value = record.get("v")
    if type(ts) is int and type(value) is float:
        return name, tags, ts, value
    try:
        if isinstance(ts, bool) or not isinstance(ts, (int, float)):
            raise MetricsError("'ts' must be a number")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MetricsError("'v' must be a number")
        try:
            return name, tags, int(ts), float(value)
        except (ValueError, OverflowError):  # NaN/Infinity ts, 400-digit v
            raise MetricsError("'ts' and 'v' must be finite") from None
    except MetricsError:
        _check_tags(tags)
        raise


def _check_tags(tags: Mapping[Any, Any]) -> None:
    """Raise the tag rule's refusal when ``tags`` breaks it: the walk a
    refused record makes before its own refusal is raised."""
    for tag, value in tags.items():
        if not isinstance(tag, str) or not isinstance(value, str):
            raise MetricsError(_TAGS_RULE)


def raise_first_error(errors: Iterable[str | None]) -> None:
    """Raise the first per-entry error of a batch, if there is one."""
    for error in errors:
        if error is not None:
            raise MetricsError(error)


def _cadence_gaps(seen: Sequence[int]) -> list[int]:
    """The interior timestamps that ``seen`` (sorted, distinct) skips at
    its own smallest step: minutes in which no series reported at all."""
    if len(seen) < 2:
        return []
    step = min(b - a for a, b in zip(seen, seen[1:]))
    present = set(seen)
    return [
        ts for ts in range(seen[0], seen[-1] + step, step) if ts not in present
    ]


def complete_minutes(
    members: Iterable[TimeSeries],
) -> tuple[TimeSeries, list[int]]:
    """Sum ``members`` over the timestamps every one of them reports.

    The one definition of the complete-minute rule, behind
    :meth:`MetricsStore.aggregate_complete` and every ragged
    :class:`SeriesGroup`: ``(series, degraded)``, where ``degraded``
    lists what was dropped — partially reported timestamps plus interior
    cadence gaps.  A member with no sample at all (trimmed away by
    retention, or wholly outside the queried window) is an instance that
    is gone, not one that fails to report: like a series never written,
    it does not count.
    """
    members = [series for series in members if len(series)]
    n_series = len(members)
    counts: dict[int, int] = {}
    totals: dict[int, float] = {}
    for series in members:
        for ts, value in zip(
            series.timestamps.tolist(), series.values.tolist()
        ):
            counts[ts] = counts.get(ts, 0) + 1
            totals[ts] = totals.get(ts, 0.0) + value
    seen = sorted(counts)
    complete = [ts for ts in seen if counts[ts] == n_series]
    partial = [ts for ts in seen if counts[ts] < n_series]
    return (
        TimeSeries(complete, [totals[ts] for ts in complete]),
        sorted(partial + _cadence_gaps(seen)),
    )


@dataclass(frozen=True)
class SeriesGroup:
    """The series of one ``(name, component)`` of a topology, in
    creation order, as :meth:`MetricsStore.topology_frame` read them.

    *Dense* — every member holds the same timestamps, the steady state —
    is one shared ``int64`` ``timestamps`` vector and a ``members ×
    minutes`` ``float64`` ``block``; otherwise (a crash, a dropout, a
    late joiner) ``block`` is ``None`` and ``members`` holds one view per
    series.
    """

    keys: tuple[MetricKey, ...]
    timestamps: np.ndarray | None = None
    block: np.ndarray | None = None
    members: tuple[TimeSeries, ...] | None = None

    def tag_values(self, tag: str) -> list[str | None]:
        """Each member's value of ``tag`` (``None`` where it has none)."""
        return [dict(key.tags).get(tag) for key in self.keys]

    def series(self) -> Sequence[TimeSeries]:
        """One view per member, what :meth:`MetricsStore.query` returns."""
        if self.members is not None:
            return self.members
        return [TimeSeries(self.timestamps, row) for row in self.block]

    def complete(self) -> tuple[TimeSeries, list[int]]:
        """:meth:`MetricsStore.aggregate_complete` of the group."""
        if self.block is None:
            return complete_minutes(self.members)
        # ``accumulate`` adds row by row by definition (``sum`` goes
        # pairwise on a one-column block); the trailing ``+ 0.0`` is the
        # ``0.0`` the rule's running total starts from (``-0.0`` -> ``0.0``).
        totals = np.add.accumulate(self.block, axis=0)[-1] + 0.0
        return (
            TimeSeries(self.timestamps, totals),
            _cadence_gaps(self.timestamps.tolist()),
        )

    def where(self, tag: str, value: str) -> "SeriesGroup":
        """The members carrying ``tag=value``."""
        rows = [i for i, v in enumerate(self.tag_values(tag)) if v == value]
        if len(rows) == len(self.keys):
            return self
        return SeriesGroup(
            tuple(self.keys[i] for i in rows),
            self.timestamps,
            None if self.block is None else self.block[rows],
            None if self.members is None else tuple(self.members[i] for i in rows),
        )

    def since(self, start: int) -> "SeriesGroup":
        """The group restricted to samples at or after ``start``."""
        if self.block is None:
            views = tuple(view.between(start, 2**62) for view in self.members)
            return SeriesGroup(self.keys, members=views)
        first = int(np.searchsorted(self.timestamps, start))
        return SeriesGroup(
            self.keys, self.timestamps[first:], self.block[:, first:]
        )


def _series_group(
    keys: list[MetricKey], buffers: list[_SeriesBuffer]
) -> SeriesGroup:
    """Snapshot one group's buffers (the caller holds the store lock).

    Nothing is allocated per member on the dense path — the block is
    built straight from the buffers — so a frame of thousands of series
    leaves the cyclic collector nothing to scan.
    """
    first = buffers[0].timestamps
    if all(buffer.timestamps == first for buffer in buffers):
        block = np.array([buffer.values for buffer in buffers], np.float64)
        if not np.isinf(block).any():  # a view refuses infinities
            return SeriesGroup(tuple(keys), np.array(first, np.int64), block)
    return SeriesGroup(
        tuple(keys), members=tuple(buffer.freeze() for buffer in buffers)
    )


@dataclass(frozen=True)
class TopologyFrame:
    """One consistent read of several metrics of one topology.

    What :meth:`MetricsStore.topology_frame` returns: a
    :class:`SeriesGroup` per ``(name, component)``, all taken in the same
    lock hold, so everything fitted from a frame saw the same minutes.
    A group none of whose series can be viewed (an infinite sample) is
    held as the error, raised when — and only if — it is looked up.
    """

    topology: str
    groups: dict[tuple[str, str | None], SeriesGroup | MetricsError]

    def group(
        self, name: str, component: str | None, stream: str | None = None
    ) -> SeriesGroup:
        """The series ``query(name, {topology, component[, stream]})``
        matches (``component=None``: the topology-wide series, which
        carry no component tag); raises as
        :meth:`MetricsStore.aggregate_complete` does when there is none
        (or when one of them cannot be viewed)."""
        tag_filter = {"topology": self.topology, "component": component}
        found = self.groups.get((name, component))
        if isinstance(found, MetricsError):
            raise found
        if stream is not None:
            tag_filter["stream"] = stream
            if found is not None:
                found = found.where("stream", stream)
        if found is None or not found.keys:
            raise MetricsError(
                f"no series match {name!r} with filter {tag_filter}"
            )
        return found


class MetricsStore:
    """Thread-safe in-memory metrics database.

    Parameters
    ----------
    retention_seconds:
        If given, samples older than ``latest - retention_seconds`` are
        dropped lazily on write.  ``None`` keeps everything (the default —
        experiments want full history).
    telemetry:
        Where the ``store.*`` counters and the ``store.ingest_frames``
        span (one per framed batch, never per :meth:`write`) are kept.
    """

    def __init__(
        self, retention_seconds: int | None = None, telemetry: Telemetry | None = None
    ) -> None:
        if retention_seconds is not None and retention_seconds <= 0:
            raise MetricsError("retention_seconds must be positive or None")
        self._retention = retention_seconds
        self._series: dict[MetricKey, _SeriesBuffer] = {}
        # (name, topology tag) -> that bucket of ``_series`` as parallel
        # key and buffer lists (16 B a series, a dict entry is ~40),
        # filled in series-creation order: what a read naming a topology
        # walks.  Series are only ever dropped all at once, by ``clear``.
        self._by_topology: dict[
            tuple[str, str | None], tuple[list[MetricKey], list[_SeriesBuffer]]
        ] = {}
        # name -> tag items as they arrived -> the series' one MetricKey,
        # and how many keys that holds (unlocked, like the table: a lost
        # update only delays the bound's next clear by a key).
        self._interned: dict[str, dict[tuple, MetricKey]] = {}
        self._interned_keys = 0
        # The key tables' bound as last computed: it only grows with the
        # series, so it is recomputed when the table reaches it.
        self._key_bound = _INTERN_SLACK
        # One copy of every metric name, tag string and tag pair the keys
        # spell, each mapped to itself: what ``key_of`` builds keys from;
        # and each recent tag set -> what ``_tag_set`` made of it.
        self._shared: dict[Any, Any] = {}
        self._tag_sets: dict[tuple, tuple] = {}
        # Record head bytes that passed the gate -> the key they name.
        self._heads: dict[bytes, MetricKey] = {}
        self.telemetry = telemetry or Telemetry()
        self._lock = threading.Lock()
        self._latest: int | None = None
        # Write counters per `topology` tag value (None = untagged),
        # plus subscribers — the serving tier's invalidation hooks.
        self._versions: dict[str | None, int] = {}
        self._listeners: list[Callable[[str | None], None]] = []

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def key_of(
        self, name: str, tags: Mapping[str, str] | None = None
    ) -> MetricKey:
        """The one :class:`MetricKey` constructor: one key per series,
        built from strings and tag pairs shared across the store.

        Writers name the same few thousand series over and over (WAL
        replay, ``write_batch`` frames, per-sample writes); looking the
        key up by ``(name, tags as given)`` skips the sort, the dataclass
        construction and the hash of a fresh key per sample, and the
        series-dict lookup that follows hits on identity.  A key built
        here holds the store's one copy of its name and of each ``(tag,
        value)`` pair — thousands of series of a topology spell the same
        ``("topology", …)`` pair — and of its tag tuple, which the keys
        of one instance's metrics share, as their table entries do.
        Raises :class:`~repro.errors.MetricsError` for a name or tag that
        is not a string.  The tables are caches: at most a small multiple
        of the live series (a writer that permutes tag order cannot grow
        them past that), emptied by :meth:`clear`.
        """
        items = tuple(tags.items()) if tags else ()
        try:
            by_tags = self._interned.get(name, _NO_KEYS)
            key = by_tags.get(items)
        except TypeError:  # an unhashable name or tag value, refused below
            key = None
        if key is None:
            if not isinstance(name, str):
                raise MetricsError(_NAME_RULE)
            if self._interned_keys >= self._key_bound:
                self._bound_keys()
                by_tags = self._interned.get(name, _NO_KEYS)
            try:
                tag_set = self._tag_sets.get(items)
            except TypeError:  # unhashable: not a string
                raise MetricsError(_TAGS_RULE) from None
            if tag_set is None:
                tag_set = self._tag_set(items)
            pairs, ordered, found = tag_set
            name = self._shared.setdefault(name, name)
            key = MetricKey(name, ordered, found=found)
            if by_tags is _NO_KEYS:
                by_tags = self._interned[name] = {}
            by_tags[pairs] = key
            self._interned_keys += 1
        return key

    def _tag_set(
        self, items: tuple
    ) -> tuple[tuple, tuple, tuple[str | None, str | None]]:
        """A tag set's first sighting, as it arrived: ``(pairs, ordered,
        found)`` — the store's copy of its pairs in arrival order and
        sorted, and the values of its ``topology`` and ``component`` tags —
        kept for every key that spells it (each metric of an instance).

        The one walk of a tag set: it checks the type rule on each pair
        the store has no copy of yet, and shares the rest.
        """
        shared, tag_sets = self._shared, self._tag_sets
        if len(shared) >= 4 * len(self._series) + 2 * _INTERN_SLACK:
            shared.clear()  # strings beside the pairs: twice the key bound
            tag_sets.clear()
        elif len(tag_sets) >= _TAG_SETS:
            tag_sets.clear()
        pairs = list(map(shared.get, items))
        while None in pairs:
            index = pairs.index(None)
            tag, value = items[index]
            if not isinstance(tag, str) or not isinstance(value, str):
                raise MetricsError(_TAGS_RULE)
            pair = pairs[index] = (
                shared.setdefault(tag, tag), shared.setdefault(value, value)
            )
            shared[pair] = pair
        found = dict(pairs)
        pairs = tuple(pairs)
        ordered = tuple(sorted(pairs))
        if ordered == pairs:  # the keys and their entries share one tuple
            ordered = pairs
        tag_set = tag_sets[pairs] = (
            pairs, ordered, (found.get("topology"), found.get("component"))
        )
        return tag_set

    def _bound_keys(self) -> None:
        """Recompute the key tables' bound — twice the live series plus
        slack — once the intern table holds as many keys as the last one
        allowed, and empty a table that is past it."""
        bound = self._key_bound = 2 * len(self._series) + _INTERN_SLACK
        if self._interned_keys >= bound:
            self._interned.clear()
            self._interned_keys = 0
        if len(self._shared) >= 2 * bound:
            self._shared.clear()
            self._tag_sets.clear()

    def _bound_heads(self, arriving: int) -> None:
        """Empty the record-head table when ``arriving`` more heads would
        take it past the intern table's bound."""
        if len(self._heads) + arriving > 2 * len(self._series) + _INTERN_SLACK:
            self._heads.clear()

    def write(
        self,
        name: str,
        timestamp: int,
        value: float,
        tags: Mapping[str, str] | None = None,
    ) -> None:
        """Append one sample to the series identified by name + tags.

        Raises :class:`~repro.errors.MetricsError` for a rejected sample,
        and for a name or tag that is not a string (before anything is
        applied or journaled).
        """
        key = self.key_of(name, tags)
        raise_first_error(self.apply_sample_batch(((key, timestamp, value),)))

    def write_many(
        self,
        name: str,
        samples: Iterable[tuple[int, float]],
        tags: Mapping[str, str] | None = None,
    ) -> None:
        """Append several ``(timestamp, value)`` samples to one series.

        One batch: every acceptable sample lands, then the first
        rejected one (out of order, or not a number) is raised.
        """
        key = self.key_of(name, tags)
        raise_first_error(
            self.apply_sample_batch(
                [(key, timestamp, value) for timestamp, value in samples]
            )
        )

    def apply_sample_batch(
        self,
        entries: Sequence[tuple[MetricKey, int, float]],
        bodies: Sequence[bytes] | None = None,
    ) -> list[str | None]:
        """Apply keyed samples, in order, under one lock acquisition.

        The one write primitive: every keyed write is a batch of it.
        ``entries`` is ``(key, timestamp, value)`` per sample, in arrival
        order, and the end state is the one the equivalent sequence of
        :meth:`write` calls leaves: the same samples on the same series
        (created in entry order), the same entries rejected (reported
        per entry in the returned list — ``None`` means accepted —
        instead of raising), the same ``data_version`` per topology and
        the same retention trims.  An entry is rejected for a timestamp
        that is not after its series' last one, or that ``int()``
        refuses (not a finite number), or for a value ``float()``
        refuses — each before its series is touched.

        The same lock hold hands the batch to :meth:`_journal`, with
        ``bodies``: the serialized record behind each entry when the
        caller already holds it (:meth:`ingest_frames` does).  Only the
        invalidation listeners are coalesced: one callback per distinct
        touched topology after the lock drops — after the journal's
        group commit, so the re-warm a write wakes does not race that
        write's own ``fsync``, and even when the journal raised, because
        the samples are in memory either way.
        """
        touched: Collection[str | None] = ()
        try:
            with self._lock:
                errors, touched = self._apply_entries(entries)
                self._journal(entries, errors, bodies)
        finally:
            self._notify(touched)
        return errors

    def _journal(
        self,
        entries: Iterable[tuple[MetricKey, int, float]],
        errors: Sequence[str | None],
        bodies: Sequence[bytes] | None,
    ) -> None:
        """Make an applied batch durable, under the lock it was applied
        in; ``errors[i]`` is ``None`` where entry ``i`` was accepted.

        The one place a batch meets a journal; a store without one has
        nothing to do.
        """

    def _apply_entries(
        self, entries: Sequence[tuple[MetricKey, int, float]]
    ) -> tuple[list[str | None], Collection[str | None]]:
        """:meth:`apply_sample_batch`'s loop, run under its lock hold:
        ``(errors, touched topologies)``, no listener told yet."""
        errors: list[str | None] = [None] * len(entries)
        # Accepted samples per topology, counted a run of one topology at
        # a time (a batch is mostly one long run).
        accepted: dict[str | None, int] = {}
        topology, run = _NO_TOPOLOGY, 0
        series = self._series
        retention = self._retention
        # An empty store's latest timestamp is below every timestamp.
        latest = -math.inf if self._latest is None else self._latest
        for idx, (key, timestamp, value) in enumerate(entries):
            try:
                timestamp, value = int(timestamp), float(value)
            except (TypeError, ValueError, OverflowError):
                errors[idx] = (
                    "a sample needs a finite timestamp and a numeric value: "
                    f"got {timestamp!r}, {value!r}"
                )
                continue
            buffer = series.get(key)
            if buffer is None:
                buffer = series[key] = _SeriesBuffer()
                bucket = self._by_topology.get((key.name, key.topology))
                if bucket is None:
                    bucket = self._by_topology[key.name, key.topology] = ([], [])
                bucket[0].append(key)
                bucket[1].append(buffer)
            timestamps = buffer.timestamps
            if timestamps and timestamp <= timestamps[-1]:
                errors[idx] = (
                    "writes must be in increasing timestamp order: "
                    f"got {timestamp} after {timestamps[-1]}"
                )
                continue
            timestamps.append(timestamp)
            buffer.values.append(value)
            if key.topology is not topology:
                if run:
                    accepted[topology] = accepted.get(topology, 0) + run
                topology, run = key.topology, 0
            run += 1
            if timestamp > latest:
                latest = self._latest = timestamp
                if retention is not None:
                    # The cutoff moved: trim now, as the write this
                    # entry stands for would, so later entries are
                    # judged against what it left behind.
                    for trimmed in self._apply_retention_locked((topology,)):
                        accepted.setdefault(trimmed, 0)
            elif retention is not None and timestamp < latest - retention:
                buffer.trim_before(latest - retention)  # expired on arrival
        if run:
            accepted[topology] = accepted.get(topology, 0) + run
        for topology, count in accepted.items():
            self._versions[topology] = self._versions.get(topology, 0) + count
        return errors, accepted

    def _notify(self, topologies: Iterable[str | None]) -> None:
        """Tell every invalidation listener about each touched topology."""
        listeners = list(self._listeners)
        for topology in topologies:
            for listener in listeners:
                listener(topology)

    def frame_samples(
        self, payloads: Sequence[bytes]
    ) -> tuple[list[tuple[MetricKey, int, float] | None], list[dict[str, Any]]]:
        """Validate ingest payloads: ``(samples, rejected)``, nothing applied.

        The one validating body behind :meth:`ingest_frames`.
        ``samples[i]`` is the ``(key, ts, value)`` sample of payload
        ``i`` (``None`` when it is refused) and ``rejected`` lists the
        refusals as ``{"frame": i, "error": msg}``; a payload that is
        not JSON at all refuses them all — the strict frame decoder's
        :class:`~repro.errors.ApiError` (400), naming its index and its
        byte offset in the body the payloads were framed in.

        A series sends the same *head* (see :data:`_TAIL`) every minute,
        so the JSON decode and :func:`frame_sample` run once per head,
        not once per payload.  A payload whose head is registered and
        whose tail is in the grammar is resolved from the bytes alone.
        Every other payload — unknown head, tail outside the grammar,
        non-finite value — goes the full way, the misses of a group
        decoded together a window at a time, so every refusal and its
        wording comes from the one gate; a payload that passed it *and*
        has a grammatical tail registers its head.  A head first seen in
        this batch is decoded once: its later finite, grammatical
        payloads wait for that verdict and resolve by the head it
        registered, or go the full way after it where it registered
        none.  Such a payload decodes whenever its first sighting does —
        the same head and a tail of JSON numbers, none over-long since
        its value is finite — so the first payload that is not JSON never
        waited: the 400 names it, whatever the order of decoding.  WAL replay
        (:func:`repro.durability.store.replay_frames`) resolves journal
        records through the same table, and registers only heads whose
        payload passes this gate.

        Why a hit may skip the gate: JSON is parsed left to right, and
        ``,"`` cannot occur inside a string of a valid document (the
        quote would have to be escaped), so in a payload that decoded
        and whose tail matched, the last ``,"ts":`` is a key of the
        object the final ``}`` closes — the top-level one, since the
        document ends there.  A payload with identical head bytes and a
        grammatical tail therefore decodes to that same object — the
        same ``op``, ``name`` and ``tags``, still no ``lsn`` — with only
        ``ts`` and ``v`` replaced by an integer and a number, which the
        tail grammar converts exactly as the decoder would; the
        finiteness check is repeated here.  Head to key is a pure
        function of the bytes, so the table can never be stale: it is a
        cache, bounded like the intern table and emptied by
        :meth:`clear`, safe to read and fill without the store lock.
        """
        from repro.durability.wal import (
            _HEADER, _NOT_JSON, _WINDOW_FRAMES, _decode_window, malformed_frame,
        )

        heads, known, tail = self._heads, self._heads.get, _TAIL.fullmatch
        samples: list[tuple[MetricKey, int, float] | None] = [None] * len(payloads)
        # (index, head, tail match) of the payloads that go the full way,
        # and of those that wait for an earlier payload of this batch to
        # register their head: finite, grammatical repeats of a head
        # first seen (with a grammatical tail) in this batch.
        misses: list[tuple[int, bytes, re.Match | None]] = []
        waiting: list[tuple[int, bytes, re.Match]] = []
        first: set[bytes] = set()
        for idx, payload in enumerate(payloads):
            head = payload[: payload.rfind(_TS_KEY)]
            match = tail(payload, len(head))
            if match is not None:
                key = known(head)
                if key is not None:
                    value = float(match[2])
                    if _isfinite(value):
                        samples[idx] = (key, int(match[1]), value)
                        continue
                elif head not in first:
                    first.add(head)
                elif _isfinite(float(match[2])):
                    waiting.append((idx, head, match))
                    continue
            misses.append((idx, head, match))
        rejected: list[dict[str, Any]] = []
        key_of = self.key_of
        by_head, decoded = len(payloads) - len(misses) - len(waiting), 0
        try:
            while decoded < len(misses):
                window = misses[decoded : decoded + _WINDOW_FRAMES]
                decoded += len(window)
                self._bound_heads(len(window))
                records, error = _decode_window([payloads[idx] for idx, _, _ in window])
                for (idx, head, match), record in zip(window, records):
                    try:
                        sample = samples[idx] = frame_sample(
                            record, payloads[idx], key_of
                        )
                    except MetricsError as exc:
                        rejected.append({"frame": idx, "error": str(exc)})
                    else:
                        if match is not None:
                            heads[head] = sample[0]
                if error is not None:
                    idx = window[len(records)][0]
                    offset = sum(map(len, payloads[:idx])) + _HEADER.size * idx
                    raise malformed_frame(idx, offset, f"{_NOT_JSON} ({error})")
                if decoded == len(misses):
                    # Every first sighting is decoded: a waiting payload
                    # resolves by the head it registered, or (refused)
                    # goes the full way too.
                    for idx, head, match in waiting:
                        key = known(head)
                        if key is None:
                            misses.append((idx, head, match))
                        else:
                            samples[idx] = (key, int(match[1]), float(match[2]))
                            by_head += 1
                    waiting.clear()
        finally:
            self.telemetry.count("store.frames_by_head", by_head)
            self.telemetry.count("store.frames_decoded", decoded)
        rejected.sort(key=lambda entry: entry["frame"])
        return samples, rejected

    def ingest_frames(
        self, frames: Sequence[bytes | tuple[Any, str]]
    ) -> dict[str, Any]:
        """Apply a pre-framed write batch: validate, one batch, report.

        ``frames`` is the payload bytes the client framed, per frame — or
        the ``(record, body)`` pairs of
        :func:`repro.api.ingest.decode_frames`, of which only the body
        counts: what is validated is what a journaling store appends.
        Frames that :meth:`frame_samples` or the store rejects (bad
        shape, out-of-order timestamp) are reported individually and do
        not poison the rest of the batch; the others go through
        :meth:`apply_sample_batch` with their bodies.  A payload that is
        not JSON refuses the whole batch (the decoder's 400) before
        anything is applied.  Returns ``{"frames", "acked", "rejected",
        "first_lsn", "last_lsn"}`` where ``rejected`` is ``[{"frame": i,
        "error": msg}, ...]``; the LSN fields are ``None`` on a store
        without a journal.
        """
        payloads = [
            frame if type(frame) is bytes else frame[1].encode("utf8")
            for frame in frames
        ]
        with self.telemetry.span("store.ingest_frames"):
            return self._apply_frames(payloads, *self.frame_samples(payloads))

    def _apply_frames(
        self,
        payloads: list[bytes],
        samples: list[tuple[MetricKey, int, float] | None],
        rejected: list[dict[str, Any]],
    ) -> dict[str, Any]:
        """Apply validated frames as one batch and build the report.

        A batch the gate refused nothing of — the steady state — goes to
        :meth:`apply_sample_batch` as it is; otherwise the accepted
        frames are picked out first.
        """
        count = len(payloads)
        accepted: Sequence[int] = range(count)
        if rejected:
            accepted = [idx for idx in accepted if samples[idx] is not None]
            samples = [samples[idx] for idx in accepted]
            payloads = [payloads[idx] for idx in accepted]
        errors = self.apply_sample_batch(samples, payloads)
        if errors.count(None) != len(errors):
            rejected.extend(
                {"frame": idx, "error": error}
                for idx, error in zip(accepted, errors)
                if error is not None
            )
            rejected.sort(key=lambda entry: entry["frame"])
        return {
            "frames": count,
            "acked": count - len(rejected),
            "rejected": rejected,
            "first_lsn": None,
            "last_lsn": None,
        }

    # ------------------------------------------------------------------
    # Prepared minute appends (the simulator's steady-state flush path)
    # ------------------------------------------------------------------
    def make_minute_batch(self, keys: Sequence[MetricKey]) -> MinuteBatch:
        """Resolve an ordered set of existing series into a MinuteBatch.

        Every key must already have a series (created by ordinary keyed
        writes — a batch never creates series, so series-dict insertion
        order stays exactly what the keyed loop established).  Raises
        :class:`~repro.errors.MetricsError` on an unknown key.
        """
        batch = MinuteBatch(keys)
        with self._lock:
            for key in batch.keys:
                buffer = self._series.get(key)
                if buffer is None:
                    raise MetricsError(
                        f"no series for {key.name!r} with tags "
                        f"{dict(key.tags)}"
                    )
                batch.ts_lists.append(buffer.timestamps)
                batch.val_lists.append(buffer.values)
            batch.last_ts = max(
                (stamps[-1] for stamps in batch.ts_lists if stamps), default=None
            )
        return batch

    def append_minute_batch(
        self,
        batch: MinuteBatch,
        timestamp: int,
        values: Sequence[float],
        topology: str | None = None,
    ) -> None:
        """Append one sample to every series of a prepared batch.

        ``values[i]`` (already a plain float — callers pass the output
        of ``ndarray.tolist()``) lands on ``batch`` series ``i`` at the
        shared ``timestamp``; ``topology`` is the tag the batch's keys
        share.  End state is identical to handing the same samples to
        :meth:`apply_sample_batch` in batch order — same per-series
        samples, same ``data_version`` delta (one bump per series), same
        retention trim, one listener call — but with the keyed lookups
        and the order check resolved beforehand it is two C-level
        loops: the second (and last) body that appends to a series.  It
        is journaled like a batch, through the same :meth:`_journal`
        hook under the same lock hold.
        """
        if len(values) != len(batch.keys):
            raise MetricsError(
                f"batch expects {len(batch.keys)} values, "
                f"got {len(values)}"
            )
        timestamp = int(timestamp)
        touched: tuple[str | None, ...] = ()
        try:
            with self._lock:
                if batch.last_ts is not None and timestamp <= batch.last_ts:
                    raise MetricsError(
                        "writes must be in increasing timestamp order: "
                        f"got {timestamp} after {batch.last_ts}"
                    )
                deque(map(list.append, batch.ts_lists, repeat(timestamp)), maxlen=0)
                deque(map(list.append, batch.val_lists, values), maxlen=0)
                batch.last_ts = timestamp
                if self._latest is None or timestamp > self._latest:
                    self._latest = timestamp
                self._versions[topology] = self._versions.get(topology, 0) + len(values)
                touched = (topology, *self._apply_retention_locked((topology,)))
                entries = zip(batch.keys, repeat(timestamp), values)
                self._journal(entries, [None] * len(values), None)
        finally:
            self._notify(touched)

    def _apply_retention_locked(self, written: Collection[str | None]) -> Collection:
        """Trim expired samples after a write to the ``written`` topologies;
        returns the other topologies it trimmed, for the listeners.

        A trim changes what the trimmed series' topology can query, so
        that topology's ``data_version`` has to move as well — otherwise
        every consumer keyed on it (result cache, calibration cache,
        sweep artifacts) would keep serving answers computed from samples
        that are gone — and its listeners have to hear of it, or what
        they hold for it stays behind under versions no read asks for.
        The written topologies' counters just moved, and an untagged
        write moved every digest (and is heard as ``None``), so only the
        *other* topologies that lost samples are bumped here.
        """
        if self._retention is None or self._latest is None:
            return ()
        cutoff = self._latest - self._retention
        trimmed: set[str | None] = set()
        for key, buffer in self._series.items():
            if buffer.timestamps and buffer.timestamps[0] < cutoff:
                buffer.trim_before(cutoff)
                trimmed.add(key.topology)
        bumped = set() if None in written else trimmed.difference(written)
        for topology in bumped:
            self._versions[topology] = self._versions.get(topology, 0) + 1
        return bumped

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def metric_names(self) -> list[str]:
        """Sorted distinct metric names currently stored."""
        with self._lock:
            return sorted({key.name for key in self._series})

    def keys(self, name: str | None = None) -> list[MetricKey]:
        """All stored keys, optionally restricted to one metric name."""
        with self._lock:
            keys = list(self._series)
        if name is not None:
            keys = [k for k in keys if k.name == name]
        return sorted(keys, key=lambda k: (k.name, k.tags))

    def get(
        self,
        name: str,
        tags: Mapping[str, str] | None = None,
    ) -> TimeSeries:
        """The full series for an exact name + tags identity.

        Raises :class:`~repro.errors.MetricsError` if no such series
        exists — a missing metric is a caller bug, not an empty result.
        """
        key = MetricKey.of(name, tags)
        with self._lock:
            buffer = self._series.get(key)
            if buffer is None:
                raise MetricsError(f"no series for {name!r} with tags {dict(key.tags)}")
            return buffer.freeze()

    def query(
        self,
        name: str,
        tag_filter: Mapping[str, str] | None = None,
        start: int | None = None,
        end: int | None = None,
    ) -> dict[MetricKey, TimeSeries]:
        """All series matching a name and a partial tag filter.

        ``start``/``end`` restrict the returned samples to
        ``start <= t < end`` when given.
        """
        tag_filter = dict(tag_filter or {})
        # A filter naming a topology walks that bucket of the index (its
        # members in creation order, so the result iterates as a walk of
        # every series would); the other tags filter within it.
        topology = tag_filter.get("topology")
        with self._lock:
            candidates = (
                self._series.items()
                if topology is None
                else zip(*self._by_topology.get((name, topology), _NO_BUCKET))
            )
            matched = {
                key: buffer.freeze()
                for key, buffer in candidates
                if key.matches(name, tag_filter)
            }
        if start is not None or end is not None:
            lo = start if start is not None else -(2**62)
            hi = end if end is not None else 2**62
            matched = {key: s.between(lo, hi) for key, s in matched.items()}
        return matched

    def aggregate(
        self,
        name: str,
        tag_filter: Mapping[str, str] | None = None,
        start: int | None = None,
        end: int | None = None,
    ) -> TimeSeries:
        """Sum of all matching series over the union of timestamps.

        This is the query the models issue to turn per-instance counters
        into component- and topology-level counters.
        """
        matched = self.query(name, tag_filter, start, end)
        if not matched:
            raise MetricsError(
                f"no series match {name!r} with filter {dict(tag_filter or {})}"
            )
        return rollup(list(matched.values()))

    def aggregate_complete(
        self,
        name: str,
        tag_filter: Mapping[str, str] | None = None,
        start: int | None = None,
        end: int | None = None,
    ) -> tuple[TimeSeries, list[int]]:
        """Sum matching series keeping only *fully reported* timestamps.

        :meth:`aggregate` sums over the union of timestamps, which
        silently under-counts any minute where some instances did not
        report (an instance crash, a metrics-collector dropout).  This
        variant returns ``(series, degraded)`` where ``series`` contains
        only timestamps at which *every* matching series has a sample,
        and ``degraded`` lists the timestamps that were dropped —
        partially reported minutes plus interior cadence gaps where no
        series reported at all.
        """
        matched = self.query(name, tag_filter, start, end)
        if not matched:
            raise MetricsError(
                f"no series match {name!r} with filter {dict(tag_filter or {})}"
            )
        return complete_minutes(matched.values())

    def topology_frame(
        self,
        topology: str,
        names: Iterable[str],
        start: int | None = None,
    ) -> TopologyFrame:
        """The ``names`` metrics of one topology, read in one lock hold.

        Per ``(name, component)`` a :class:`SeriesGroup` of the series
        :meth:`query` would match, in the same order, restricted to
        samples at or after ``start`` when given — so a calibration, its
        CPU fits and the health gate each read a topology once, and
        everything fitted from one frame saw the same set of minutes.
        The frame is a snapshot: later writes do not show in it.
        """
        members: dict[tuple[str, str | None], tuple[list, list]] = {}
        groups: dict[tuple[str, str | None], SeriesGroup | MetricsError] = {}
        with self._lock:
            for name in names:
                bucket = self._by_topology.get((name, topology), _NO_BUCKET)
                for key, buffer in zip(*bucket):
                    group = members.get((name, key.component))
                    if group is None:
                        group = members[name, key.component] = ([], [])
                    group[0].append(key)
                    group[1].append(buffer)
            for group_key, (keys, buffers) in members.items():
                try:
                    groups[group_key] = _series_group(keys, buffers)
                except MetricsError as exc:  # raised again on lookup
                    groups[group_key] = exc
        if start is not None:
            for group_key, group in groups.items():
                if isinstance(group, SeriesGroup):
                    groups[group_key] = group.since(start)
        return TopologyFrame(topology, groups)

    def group_by(
        self,
        name: str,
        tag: str,
        tag_filter: Mapping[str, str] | None = None,
    ) -> dict[str, TimeSeries]:
        """Aggregate matching series grouped by the value of one tag.

        For example ``group_by("emit-count", "component",
        {"topology": "wc"})`` returns one summed series per component.
        """
        matched = self.query(name, tag_filter)
        groups: dict[str, list[TimeSeries]] = {}
        for key, series in matched.items():
            tag_value = key.tag_dict().get(tag)
            if tag_value is None:
                continue
            groups.setdefault(tag_value, []).append(series)
        if not groups:
            raise MetricsError(
                f"no series for {name!r} carry tag {tag!r} "
                f"under filter {dict(tag_filter or {})}"
            )
        return {value: rollup(series) for value, series in groups.items()}

    def latest_timestamp(self) -> int | None:
        """The most recent timestamp written, or ``None`` when empty."""
        with self._lock:
            return self._latest

    def clear(self) -> None:
        """Drop every stored series."""
        with self._lock:
            self._series.clear()
            self._by_topology.clear()
            self._interned.clear()
            self._interned_keys = 0
            self._key_bound = _INTERN_SLACK
            self._shared.clear()
            self._tag_sets.clear()
            self._heads.clear()
            self._latest = None
            # A wipe changes what every query returns: bump the untagged
            # counter (which folds into every topology's digest).
            self._versions[None] = self._versions.get(None, 0) + 1
        self._notify((None,))

    # ------------------------------------------------------------------
    # Cache invalidation support
    # ------------------------------------------------------------------
    def data_version(self, topology: str | None = None) -> int:
        """Monotonic digest of the writes that can affect one topology.

        Any write tagged ``topology=<name>`` bumps that topology's
        counter, as does a retention trim of its series triggered by a
        write elsewhere; untagged writes (and :meth:`clear`) bump a shared
        counter folded into every digest.  Equal digests therefore
        guarantee the topology's queryable data is unchanged — the
        metrics half of the serving tier's content-addressed cache key.

        Read without the lock, which a journaling store holds across its
        ``fsync``: the HTTP listener asks on its event-loop thread.  Each
        read is atomic and the counters only grow, so a sum torn by
        concurrent batches is the digest of a state the store passed
        through during the call or of no state at all.
        """
        versions = self._versions
        version = versions.get(topology, 0)
        if topology is not None:
            version += versions.get(None, 0)
        return version

    def add_invalidation_listener(
        self, listener: Callable[[str | None], None]
    ) -> None:
        """Call ``listener(topology_tag)`` after every write batch, once
        per topology it touched (and after every clear).

        Listeners run outside the store lock and must be cheap — the
        serving tier uses them to evict cached results and queue warm
        recomputation.
        """
        with self._lock:
            self._listeners.append(listener)

    def remove_invalidation_listener(
        self, listener: Callable[[str | None], None]
    ) -> None:
        """Unsubscribe a previously added listener (idempotent)."""
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)
