"""Time-series substrate: the metrics database the models read from.

In the paper, Heron metrics are collected by per-container metrics managers
and stored in Twitter's Cuckoo time-series database (and the Heron
MetricsCache).  Caladrius pulls per-minute counters out of that store for
calibration and forecasting.  This package provides the offline equivalent:

* :class:`~repro.timeseries.series.TimeSeries` — an immutable, sorted
  (timestamp, value) sequence with alignment, arithmetic and summaries.
* :class:`~repro.timeseries.store.MetricsStore` — a tag-indexed in-memory
  metrics database with range queries, group-by aggregation and retention.
* :func:`~repro.timeseries.aggregation.rollup` — the per-instance →
  component sum behind the store's aggregations.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "store": ("MetricsStore",),
    },
)
