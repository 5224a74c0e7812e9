"""Retention trims against the ``data_version`` counter: a trim never
rewinds a digest, and moves the digest of every topology it touched."""

from __future__ import annotations

from repro.timeseries.store import MetricKey, MetricsStore


class TestRetentionVersusDataVersion:
    def test_trims_never_rewind_the_counter(self):
        store = MetricsStore(retention_seconds=300)
        versions = []
        for i in range(50):
            store.write("m", 60 * (i + 1), float(i), {"topology": "wc"})
            versions.append(store.data_version("wc"))
        # the counter increments exactly once per write, through trims
        assert versions == list(range(1, 51))
        # and the retention really was applied underneath
        series = store.get("m", {"topology": "wc"})
        assert series.timestamps[0] >= 60 * 50 - 300

    def test_trim_to_empty_series_keeps_counting(self):
        store = MetricsStore(retention_seconds=60)
        store.write("old", 60, 1.0, {"topology": "wc"})
        # a far-future write on another series trims `old` to nothing
        store.write("new", 10_000, 2.0, {"topology": "wc"})
        assert store.data_version("wc") == 2
        store.write("new", 10_060, 3.0, {"topology": "wc"})
        assert store.data_version("wc") == 3

    def test_untagged_writes_fold_into_every_digest(self):
        store = MetricsStore(retention_seconds=300)
        store.write("m", 60, 1.0)
        assert store.data_version() == 1
        assert store.data_version("wc") == 1  # untagged counter folds in
        store.write("m", 60, 1.0, {"topology": "wc"})
        assert store.data_version("wc") == 2
        # a trim-triggering untagged write still only moves forward
        store.write("m", 100_000, 2.0)
        assert store.data_version() == 2
        assert store.data_version("wc") == 3

    def test_trim_by_another_topologys_write_moves_the_trimmed_digest(self):
        store = MetricsStore(retention_seconds=120)
        for i in range(3):
            store.write("m", 60 * (i + 1), float(i), {"topology": "B"})
        assert store.data_version("B") == 3
        # A's far-future write trims every sample B can query...
        store.write("m", 600, 1.0, {"topology": "A"})
        assert len(store.get("m", {"topology": "B"})) == 0
        # ...so B's digest has to move, or caches keyed on it go stale.
        assert store.data_version("B") == 4
        assert store.data_version("A") == 1
        # A write that trims nothing of B's leaves B's digest alone.
        store.write("m", 660, 2.0, {"topology": "A"})
        assert store.data_version("B") == 4

    def test_batched_paths_move_the_trimmed_digest_too(self):
        for batched in (False, True):
            store = MetricsStore(retention_seconds=120)
            store.write("m", 60, 0.0, {"topology": "B"})
            key = MetricKey.of("m", {"topology": "A"})
            store.write("m", 60, 0.0, {"topology": "A"})
            if batched:
                batch = store.make_minute_batch([key])
                store.append_minute_batch(batch, 600, [1.0], topology="A")
            else:
                assert store.apply_sample_batch([(key, 600, 1.0)]) == [None]
            assert len(store.get("m", {"topology": "B"})) == 0
            assert store.data_version("B") == 2
            assert store.data_version("A") == 2
