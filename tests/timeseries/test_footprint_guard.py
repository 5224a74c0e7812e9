"""Structure guard: what one stored series costs in memory.

The store keeps one series per (metric, instance), so its series count
grows with parallelism and the bytes of each series bound how many
topologies one process can model.  A series used to carry a key and a
buffer with a ``__dict__`` each and its own copy of every tag pair; a
store of a 1000-instance topology held tens of thousands of identical
``("topology", …)`` tuples.  Keys are now built in one place
(``MetricsStore.key_of``) from pairs the store shares, and both records
are slotted.  These checks keep it that way.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.api.ingest import encode_frame, split_frames
from repro.durability import DurableMetricsStore
from repro.timeseries.store import MetricKey, MetricsStore

#: Traced bytes per series of the store :func:`_frames` builds (2,000
#: series, two samples each, through ``ingest_frames``): 919 B on Python
#: 3.10, 908 B on 3.11 and 904 B on 3.12 when this bound was set, which
#: is that largest figure plus 19%.  The layout before it measured 1,391
#: to 1,539 B.
MAX_BYTES_PER_SERIES = 1100

TAGS = {"topology": "wc", "component": "splitter", "container": "1"}


def _frames(series: int = 2000, minutes: int = 2) -> list[bytes]:
    payloads, fault = split_frames(b"".join(
        encode_frame(
            "execute-count" if i % 2 else "emit-count",
            60 * minute,
            float(i * minute) + 0.5,
            {
                "topology": "wc",
                "component": f"c{i % 10}",
                "container": str(i % 25),
                "instance": f"c{i % 10}_{i // 20}",
            },
        )
        for minute in range(1, minutes + 1)
        for i in range(series)
    ))
    assert fault is None
    return payloads


def test_keys_and_buffers_have_no_instance_dict():
    store = MetricsStore()
    store.write("m", 60, 1.0, TAGS)
    ((key, buffer),) = store._series.items()
    assert not hasattr(key, "__dict__")
    assert not hasattr(buffer, "__dict__")
    assert not hasattr(MetricKey.of("m", TAGS), "__dict__")


def _pair(key: MetricKey, tag: str) -> tuple[str, str]:
    return next(pair for pair in key.tags if pair[0] == tag)


def test_series_of_one_topology_share_their_tag_pairs():
    store = MetricsStore()
    store.write("execute-count", 60, 1.0, {**TAGS, "instance": "splitter_0"})
    store.write("emit-count", 60, 1.0, {**TAGS, "instance": "splitter_1"})
    store.write("emit-count", 120, 1.0, {"instance": "splitter_1", **TAGS})
    assert len(store) == 2  # the third write named the second series
    one, two = store._series
    assert _pair(one, "topology") == ("topology", "wc")
    for tag in TAGS:
        assert _pair(one, tag) is _pair(two, tag)
    assert _pair(one, "instance") != _pair(two, "instance")


def test_a_replayed_key_equals_the_ingested_key_and_shares_its_pairs(tmp_path):
    tags = [{**TAGS, "instance": f"splitter_{i}"} for i in range(3)]
    with DurableMetricsStore(tmp_path, fsync="never") as store:
        store.ingest_frames(_payloads([("m", 60, t) for t in tags]))
        store.write("m", 120, 1.0, tags[0])  # the per-sample journal path
        ingested = list(store._series)
    with DurableMetricsStore(tmp_path) as reopened:
        replayed = list(reopened._series)
        assert replayed == ingested
        assert [key.topology for key in replayed] == ["wc"] * 3
        # Replay built its keys where every writer does: a later write
        # names the very key, and the series share their pairs.
        assert reopened.key_of("m", tags[1]) is replayed[1]
        for tag in TAGS:
            assert _pair(replayed[0], tag) is _pair(replayed[2], tag)
        assert replayed[0].name is replayed[1].name


def _payloads(entries) -> list[bytes]:
    payloads, fault = split_frames(b"".join(
        encode_frame(name, ts, 1.0, tags) for name, ts, tags in entries
    ))
    assert fault is None
    return payloads


def test_one_function_builds_keys(src_index):
    """Every key comes from ``MetricsStore.key_of``; ``MetricKey.of``,
    the unshared form reads look series up with, builds through ``cls``."""
    assert src_index.functions_containing("MetricKey(") == [
        "timeseries/store.py:key_of"
    ]
    assert sum(file.source.count("MetricKey(") for file in src_index.values()) == 1
    of = next(
        function
        for function in src_index["timeseries/store.py"].functions
        if function.name.endswith("MetricKey.of")
    )
    assert "cls(" in of.text


def test_bytes_per_series_stay_under_the_bound():
    payloads = _frames()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        store = MetricsStore()
        result = store.ingest_frames(payloads)
        del payloads
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result["acked"] == 4000 and len(store) == 2000
    assert traced / len(store) < MAX_BYTES_PER_SERIES
