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

from repro.heron.corpus import SyntheticCorpus
from repro.heron.groupings import (
    AllGrouping,
    FieldsGrouping,
    GlobalGrouping,
    Grouping,
    KeyDistribution,
    ShuffleGrouping,
)
from repro.heron.metrics import MetricNames
from repro.heron.packing import (
    ContainerPlan,
    InstancePlan,
    PackingPlan,
    Resources,
    RoundRobinPacking,
)
from repro.heron.simulation import (
    ComponentLogic,
    HeronSimulation,
    SimulationConfig,
    SpoutLogic,
)
from repro.heron.topology import (
    ComponentSpec,
    LogicalTopology,
    Stream,
    TopologyBuilder,
)
from repro.heron.topology_yaml import load_topology_yaml, parse_topology_document
from repro.heron.tracker import TopologyTracker
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.heron.workloads import AdsPipelineParams, build_ads_pipeline

__all__ = [
    "AdsPipelineParams",
    "AllGrouping",
    "ComponentLogic",
    "ComponentSpec",
    "ContainerPlan",
    "FieldsGrouping",
    "GlobalGrouping",
    "Grouping",
    "HeronSimulation",
    "InstancePlan",
    "KeyDistribution",
    "LogicalTopology",
    "MetricNames",
    "PackingPlan",
    "Resources",
    "RoundRobinPacking",
    "ShuffleGrouping",
    "SimulationConfig",
    "SpoutLogic",
    "Stream",
    "SyntheticCorpus",
    "TopologyBuilder",
    "TopologyTracker",
    "WordCountParams",
    "build_ads_pipeline",
    "build_word_count",
    "load_topology_yaml",
    "parse_topology_document",
]
