"""A key obeys the record type rule, so an acknowledged write survives a restart.

Replay applies ``write_fields``' rule — a string name, tags mapping
strings to strings — to every journaled ``write``.  A key the in-process
writers could build outside that rule was a write the store acknowledged
and journaled, and recovery then skipped: ``{"a": 1}`` was gone after a
reopen.  ``MetricKey`` now applies the rule itself, so such a write is
refused before anything is applied or journaled, and whatever was
acknowledged comes back.
"""

from __future__ import annotations

import pytest

from repro.durability import DurableMetricsStore, store_content_hash
from repro.errors import MetricsError
from repro.timeseries.store import MetricKey, MetricsStore

#: Tag mappings outside the rule: a number, a list, a numeric key, None.
BAD_TAGS = [{"a": 1}, {"a": ["x"]}, {1: "x"}, {"a": "x", 2: "y"}, {"a": None}]


@pytest.mark.parametrize("tags", BAD_TAGS, ids=repr)
def test_acknowledged_write_is_present_after_reopen_or_was_refused(tmp_path, tags):
    with DurableMetricsStore(tmp_path, fsync="always") as store:
        store.write("ok", 60, 1.0, {"a": "x"})
        try:
            store.write("m", 60, 1.0, tags)
        except MetricsError:
            acknowledged = False
        else:
            acknowledged = True
        before = store_content_hash(store)
        series = len(store)
    with DurableMetricsStore(tmp_path) as reopened:
        assert reopened.recovery.skipped_records == 0
        assert store_content_hash(reopened) == before
        assert len(reopened) == series == 1 + acknowledged


@pytest.mark.parametrize("tags", BAD_TAGS, ids=repr)
def test_every_in_process_writer_refuses_a_bad_tag(tags):
    store = MetricsStore()
    with pytest.raises(MetricsError, match="'tags' must map strings to strings"):
        store.write("m", 60, 1.0, tags)
    with pytest.raises(MetricsError, match="'tags' must map strings to strings"):
        store.write_many("m", [(60, 1.0)], tags)
    with pytest.raises(MetricsError, match="'tags' must map strings to strings"):
        store.key_of("m", tags)
    assert len(store) == 0 and store.data_version("a") == 0


@pytest.mark.parametrize("name", [None, 7, b"m", ("m",), ["m"]], ids=repr)
def test_a_name_that_is_not_a_string_is_refused(name):
    store = MetricsStore()
    with pytest.raises(MetricsError, match="'name' must be"):
        store.write(name, 60, 1.0, {"a": "x"})
    assert len(store) == 0


def test_the_key_itself_applies_the_rule():
    with pytest.raises(MetricsError):
        MetricKey("m", (("a", 1),))
    with pytest.raises(MetricsError):
        MetricKey(1, ())
    with pytest.raises(MetricsError):
        MetricKey.of("m", {"a": 1})


def test_a_refused_write_is_not_journaled(tmp_path):
    with DurableMetricsStore(tmp_path, fsync="always") as store:
        with pytest.raises(MetricsError):
            store.write("m", 60, 1.0, {"a": 1})
        assert store.wal.last_lsn == 0
