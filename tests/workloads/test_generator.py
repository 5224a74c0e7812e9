"""Tests for the seeded parameterized topology generator."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.heron.groupings import FieldsGrouping
from repro.heron.metrics import MetricNames
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.topology_yaml import dump_topology_yaml
from repro.timeseries.store import MetricsStore
from repro.workloads import (
    SHAPES,
    GeneratorParams,
    generate_workload,
    workload_seed,
)


def spouts_of(topology):
    return [n for n, s in topology.components.items() if s.is_spout]


def bolts_of(topology):
    return [n for n, s in topology.components.items() if not s.is_spout]


class TestShapes:
    def test_diamond_has_two_paths_reconverging(self):
        workload = generate_workload("diamond", seed=7)
        topology = workload.topology
        assert len(spouts_of(topology)) == 1
        sinks = [
            n for n in bolts_of(topology)
            if len(list(topology.inputs(n))) >= 2
        ]
        assert sinks, "diamond must reconverge on a merge bolt"

    def test_fanin_joins_two_spouts(self):
        workload = generate_workload("fanin", seed=7)
        topology = workload.topology
        assert len(spouts_of(topology)) == 2
        joins = [
            n for n in bolts_of(topology)
            if len(list(topology.inputs(n))) == 2
        ]
        assert joins, "fan-in must have a two-input join bolt"
        (join,) = joins
        for stream in topology.inputs(join):
            assert isinstance(stream.grouping, FieldsGrouping)

    def test_deep_chain_depth_at_least_six(self):
        workload = generate_workload("deep_chain", seed=7)
        assert len(bolts_of(workload.topology)) >= 6

    def test_multi_spout_has_three_sources(self):
        workload = generate_workload("multi_spout", seed=7)
        assert len(spouts_of(workload.topology)) == 3

    @pytest.mark.parametrize("shape", SHAPES)
    def test_has_zipf_fields_grouping(self, shape):
        topology = generate_workload(shape, seed=7).topology
        fields = [
            stream
            for name in topology.components
            for stream in topology.inputs(name)
            if isinstance(stream.grouping, FieldsGrouping)
        ]
        assert fields, f"{shape} must exercise fields routing"
        for stream in fields:
            dist = stream.grouping.key_distribution
            weights = list(dist.normalised_weights())
            assert weights[0] > weights[-1], "keys must be skewed"


class TestDeterminism:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_same_seed_same_deployment(self, shape):
        first = dump_topology_yaml(
            *generate_workload(shape, seed=13).deployment()
        )
        second = dump_topology_yaml(
            *generate_workload(shape, seed=13).deployment()
        )
        assert first == second

    @pytest.mark.parametrize("shape", SHAPES)
    def test_different_seeds_differ(self, shape):
        first = dump_topology_yaml(
            *generate_workload(shape, seed=1).deployment()
        )
        second = dump_topology_yaml(
            *generate_workload(shape, seed=2).deployment()
        )
        assert first != second

    def test_workload_seed_is_stable(self):
        assert workload_seed(7, "diamond") == workload_seed(7, "diamond")
        assert workload_seed(7, "diamond") != workload_seed(7, "fanin")
        assert workload_seed(7, "diamond") != workload_seed(8, "diamond")


class TestParams:
    def test_unknown_shape_rejected(self):
        with pytest.raises(TopologyError, match="shape"):
            generate_workload("pentagon", seed=0)

    def test_utilisation_band_respected(self):
        params = GeneratorParams(
            shape="deep_chain", seed=4,
            min_utilisation=0.4, max_utilisation=0.5,
        )
        workload = generate_workload(**{
            "shape": params.shape, "seed": params.seed,
            "min_utilisation": 0.4, "max_utilisation": 0.5,
        })
        for spec in workload.logic.values():
            if hasattr(spec, "capacity_tps"):
                assert spec.capacity_tps > 0

    def test_with_parallelisms_rebuilds_packing(self):
        workload = generate_workload("diamond", seed=7)
        bolt = bolts_of(workload.topology)[0]
        scaled = workload.with_parallelisms(
            {bolt: workload.topology.parallelism(bolt) + 2}
        )
        assert (
            scaled.topology.parallelism(bolt)
            == workload.topology.parallelism(bolt) + 2
        )
        assert scaled.packing.num_containers() >= 1


class TestCluster:
    def test_cluster_workloads_simulate(self):
        for shape in SHAPES[:2]:
            workload = generate_workload(shape, seed=3)
            store = MetricsStore()
            sim = HeronSimulation(
                *workload.deployment(), store, SimulationConfig(seed=1)
            )
            workload.set_source_rates(sim, 0.5 * workload.base_rate_tpm)
            sim.run(2)
            for bolt in bolts_of(workload.topology):
                executed = store.aggregate(
                    MetricNames.EXECUTE_COUNT,
                    {"topology": workload.name, "component": bolt},
                )
                assert executed.values[-1] > 0
