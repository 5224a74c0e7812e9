"""The parent commit's read path, kept as the reference for differentials.

Every read here is a walk of every series under the store lock, exactly
as ``MetricsStore`` answered before it grew an index and a frame reader
— with the one intended behaviour change folded in: a member with no
sample in the queried window does not count as an instance
(``linear_aggregate_complete``).
"""

from __future__ import annotations

from repro.errors import MetricsError
from repro.timeseries.aggregation import rollup
from repro.timeseries.series import TimeSeries


# ----------------------------------------------------------------------
# The reference: every read is a walk of every series
# ----------------------------------------------------------------------
def linear_query(store, name, tag_filter=None, start=None, end=None):
    """``query`` as the parent commit served it."""
    tag_filter = dict(tag_filter or {})
    with store._lock:
        matched = {
            key: buffer.freeze()
            for key, buffer in store._series.items()
            if key.name == name
            and all(item in key.tags for item in tag_filter.items())
        }
    if start is not None or end is not None:
        lo = start if start is not None else -(2**62)
        hi = end if end is not None else 2**62
        matched = {key: s.between(lo, hi) for key, s in matched.items()}
    return matched


def _no_match(name, tag_filter):
    return MetricsError(
        f"no series match {name!r} with filter {dict(tag_filter or {})}"
    )


def linear_aggregate(store, name, tag_filter=None, start=None):
    matched = linear_query(store, name, tag_filter, start)
    if not matched:
        raise _no_match(name, tag_filter)
    return rollup(list(matched.values()))


def linear_aggregate_complete(store, name, tag_filter=None, start=None):
    """The parent's body, with the one intended change: a member with no
    sample in the window does not count as an instance."""
    matched = linear_query(store, name, tag_filter, start)
    if not matched:
        raise _no_match(name, tag_filter)
    members = [series for series in matched.values() if len(series)]
    n_series = len(members)
    counts: dict[int, int] = {}
    totals: dict[int, float] = {}
    for series in members:
        for ts, value in zip(series.timestamps, series.values):
            ts = int(ts)
            counts[ts] = counts.get(ts, 0) + 1
            totals[ts] = totals.get(ts, 0.0) + float(value)
    complete = sorted(ts for ts, c in counts.items() if c == n_series)
    degraded = sorted(ts for ts, c in counts.items() if c < n_series)
    if len(counts) > 1:
        seen = sorted(counts)
        step = min(b - a for a, b in zip(seen, seen[1:]))
        expected = range(seen[0], seen[-1] + step, step)
        missing = [ts for ts in expected if ts not in counts]
        degraded = sorted(set(degraded) | set(missing))
    return TimeSeries(complete, [totals[ts] for ts in complete]), degraded


def linear_group_by(store, name, tag, tag_filter=None):
    groups: dict[str, list[TimeSeries]] = {}
    for key, series in linear_query(store, name, tag_filter).items():
        value = dict(key.tags).get(tag)
        if value is not None:
            groups.setdefault(value, []).append(series)
    if not groups:
        raise MetricsError(
            f"no series for {name!r} carry tag {tag!r} "
            f"under filter {dict(tag_filter or {})}"
        )
    return {value: rollup(series) for value, series in groups.items()}


def linear_keys(store, name=None):
    keys = [k for k in store._series if name is None or k.name == name]
    return sorted(keys, key=lambda k: (k.name, k.tags))


# ----------------------------------------------------------------------
# Comparing answers
# ----------------------------------------------------------------------
def series_bytes(series: TimeSeries):
    return series.timestamps.tobytes(), series.values.tobytes()


def outcome(call):
    try:
        return "ok", call()
    except MetricsError as exc:
        return "raised", str(exc)


def plain(value):
    """An answer as comparable bytes and lists, order included."""
    if isinstance(value, TimeSeries):
        return series_bytes(value)
    if isinstance(value, dict):
        return [(key, plain(item)) for key, item in value.items()]
    if isinstance(value, tuple):
        return tuple(plain(item) for item in value)
    return value
