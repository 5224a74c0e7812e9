"""Heron substrate: a discrete-time simulator of an Apache Heron cluster.

The paper evaluates Caladrius against real Heron topologies running on
Twitter's Aurora cluster.  Offline, this package provides the equivalent
system: logical topology definition, Heron-style round-robin packing into
containers, stream groupings, a fluid (rate-level) per-second simulation of
instances with watermark-based backpressure, per-minute metrics emission,
and a Heron-Tracker-style metadata service.

The simulator is *fluid*: it tracks tuple rates and queue sizes rather than
individual tuples.  Everything Caladrius's models observe — per-minute
counters, saturation points, the bimodal backpressure-time metric, grouping
induced traffic splits and CPU load — is preserved; per-tuple content is
not, because no model in the paper reads it.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "simulation": ("HeronSimulation", "SimulationConfig"),
        "tracker": ("TopologyTracker",),
        "wordcount": ("WordCountParams", "build_word_count"),
        "workloads": ("AdsPipelineParams", "build_ads_pipeline"),
    },
)
