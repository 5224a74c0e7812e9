"""Tests for packing-plan cost estimation and the FFD packer."""

from __future__ import annotations

import pytest

from repro.core.component_model import ComponentModel
from repro.core.instance_model import InstanceModel
from repro.core.topology_model import TopologyModel
from repro.errors import GraphError, PackingError
from repro.graph.plan_analysis import (
    analyse_plan,
    stream_rates_from_propagation,
)
from repro.heron.groupings import ShuffleGrouping
from repro.heron.packing import (
    FirstFitDecreasingPacking,
    Resources,
    RoundRobinPacking,
)
from repro.heron.topology import TopologyBuilder
from repro.heron.wordcount import WordCountParams, build_word_count

M = 1e6


def chain_topology(spout_p=2, worker_p=2):
    builder = TopologyBuilder("chain")
    builder.add_spout("s", spout_p)
    builder.add_bolt("w", worker_p)
    builder.connect("s", "w", ShuffleGrouping())
    return builder.build()


class TestAnalysePlan:
    def test_single_container_is_all_local(self):
        topology = chain_topology()
        packing = RoundRobinPacking().pack(topology, 1)
        cost = analyse_plan(topology, packing, {("s", "default"): 100.0})
        assert cost.remote_rate == 0.0
        assert cost.local_rate == pytest.approx(100.0)
        assert cost.remote_fraction == 0.0

    def test_spread_plan_pays_remote_traffic(self):
        topology = chain_topology()
        packing = RoundRobinPacking().pack(topology, 4)  # fully spread
        cost = analyse_plan(topology, packing, {("s", "default"): 100.0})
        # s_0 and s_1 each send 25 to w_0 and w_1; every flow crosses
        # containers in a one-instance-per-container plan.
        assert cost.remote_rate == pytest.approx(100.0)
        assert cost.remote_fraction == 1.0

    def test_stmgr_load_counts_both_ends_of_remote_flows(self):
        topology = chain_topology(spout_p=1, worker_p=1)
        packing = RoundRobinPacking().pack(topology, 2)
        cost = analyse_plan(topology, packing, {("s", "default"): 50.0})
        # One remote flow of 50: the sender's and the receiver's stream
        # managers each route it once.
        assert cost.stmgr_load[1] == pytest.approx(50.0)
        assert cost.stmgr_load[2] == pytest.approx(50.0)
        assert cost.max_stmgr_load == pytest.approx(50.0)

    def test_missing_rate_raises(self):
        topology = chain_topology()
        packing = RoundRobinPacking().pack(topology, 2)
        with pytest.raises(GraphError, match="no rate"):
            analyse_plan(topology, packing, {})

    def test_negative_rate_raises(self):
        topology = chain_topology()
        packing = RoundRobinPacking().pack(topology, 2)
        with pytest.raises(GraphError, match="non-negative"):
            analyse_plan(topology, packing, {("s", "default"): -1.0})

    def test_summary_is_json_friendly(self):
        import json

        topology = chain_topology()
        packing = RoundRobinPacking().pack(topology, 2)
        cost = analyse_plan(topology, packing, {("s", "default"): 10.0})
        assert json.dumps(cost.summary())


class TestFromPropagation:
    def test_rates_derived_from_the_model(self):
        topology, _, _ = build_word_count(
            WordCountParams(splitter_parallelism=2, counter_parallelism=4)
        )
        model = TopologyModel(
            topology,
            {
                "splitter": ComponentModel(
                    "splitter", InstanceModel({"default": 7.635}, 11 * M), 2
                ),
                "counter": ComponentModel(
                    "counter", InstanceModel({}, 70 * M), 4
                ),
            },
        )
        report = model.propagate({"sentence-spout": 10 * M})
        rates = stream_rates_from_propagation(topology, report)
        assert rates[("sentence-spout", "default")] == pytest.approx(10 * M)
        assert rates[("splitter", "default")] == pytest.approx(
            7.635 * 10 * M
        )

    def test_cost_comparison_ranks_plans(self):
        topology, _, _ = build_word_count(
            WordCountParams(
                spout_parallelism=2,
                splitter_parallelism=2,
                counter_parallelism=2,
            )
        )
        model = TopologyModel(
            topology,
            {
                "splitter": ComponentModel(
                    "splitter", InstanceModel({"default": 7.635}, 11 * M), 2
                ),
                "counter": ComponentModel(
                    "counter", InstanceModel({}, 70 * M), 2
                ),
            },
        )
        rates = stream_rates_from_propagation(
            topology, model.propagate({"sentence-spout": 10 * M})
        )
        plans = {
            "dense": RoundRobinPacking().pack(topology, 1),
            "spread": RoundRobinPacking().pack(topology, 6),
        }
        costs = {
            name: analyse_plan(topology, plan, rates)
            for name, plan in plans.items()
        }
        assert costs["dense"].remote_fraction < costs["spread"].remote_fraction
        # Equal total traffic regardless of the plan.
        assert costs["dense"].total_rate == pytest.approx(
            costs["spread"].total_rate
        )


class TestFirstFitDecreasing:
    def test_packs_within_container_capacity(self):
        topology = chain_topology(spout_p=3, worker_p=5)
        packer = FirstFitDecreasingPacking(
            container_resources=Resources(cpu=4.0, ram_bytes=8 * 1024**3)
        )
        plan = packer.pack(topology)
        for container in plan.containers:
            used = container.required_resources()
            assert used.cpu <= 4.0
            assert used.ram_bytes <= 8 * 1024**3
        assert len(plan.all_instances()) == 8

    def test_ffd_denser_than_round_robin_default(self):
        topology = chain_topology(spout_p=4, worker_p=4)
        ffd = FirstFitDecreasingPacking().pack(topology)
        rr = RoundRobinPacking().pack_with_density(topology, 2)
        assert ffd.num_containers() <= rr.num_containers()

    def test_heavy_instances_open_more_containers(self):
        topology = chain_topology(spout_p=1, worker_p=4)
        light = FirstFitDecreasingPacking().pack(topology)
        heavy = FirstFitDecreasingPacking(
            instance_resources={
                "w": Resources(cpu=3.0, ram_bytes=6 * 1024**3)
            }
        ).pack(topology)
        assert heavy.num_containers() > light.num_containers()

    def test_oversized_instance_rejected(self):
        topology = chain_topology(spout_p=1, worker_p=1)
        packer = FirstFitDecreasingPacking(
            container_resources=Resources(cpu=1.0, ram_bytes=1024**3),
            instance_resources={"w": Resources(cpu=2.0)},
        )
        with pytest.raises(PackingError, match="more than one"):
            packer.pack(topology)

    def test_task_ids_globally_unique_and_stable(self):
        topology = chain_topology(spout_p=2, worker_p=3)
        plan = FirstFitDecreasingPacking().pack(topology)
        ids = sorted(i.task_id for i in plan.all_instances())
        assert ids == list(range(5))
        # Spouts enumerate first, same as round robin.
        assert plan.instance(0).component == "s"

    def test_ffd_plan_reduces_network_cost_vs_spread(self):
        """FFD's density shows up directly in the plan-cost analysis."""
        topology = chain_topology(spout_p=2, worker_p=2)
        ffd = FirstFitDecreasingPacking().pack(topology)
        spread = RoundRobinPacking().pack(topology, 4)
        rates = {("s", "default"): 100.0}
        ffd_cost = analyse_plan(topology, ffd, rates)
        spread_cost = analyse_plan(topology, spread, rates)
        assert ffd_cost.remote_fraction < spread_cost.remote_fraction


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None)
@given(
    spout_p=st.integers(1, 4),
    worker_p=st.integers(1, 4),
    containers=st.integers(1, 6),
    rate=st.floats(min_value=0.0, max_value=1e9),
)
def test_property_stmgr_load_accounts_every_hop(
    spout_p, worker_p, containers, rate
):
    """sum(stmgr_load) == local + 2 * remote: every flow passes its
    sender's stream manager once and, when remote, the receiver's too."""
    topology = chain_topology(spout_p, worker_p)
    containers = min(containers, spout_p + worker_p)
    packing = RoundRobinPacking().pack(topology, containers)
    cost = analyse_plan(topology, packing, {("s", "default"): rate})
    assert sum(cost.stmgr_load.values()) == pytest.approx(
        cost.local_rate + 2 * cost.remote_rate, rel=1e-9, abs=1e-6
    )
    assert cost.total_rate == pytest.approx(rate, rel=1e-9, abs=1e-6)
