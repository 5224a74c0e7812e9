"""Tests for the round-robin packing algorithm and packing plans."""

from __future__ import annotations

import pytest

from repro.errors import PackingError
from repro.heron.groupings import ShuffleGrouping
from repro.heron.packing import (
    ContainerPlan,
    InstancePlan,
    PackingPlan,
    Resources,
    RoundRobinPacking,
)
from repro.heron.topology import TopologyBuilder


def topology(spout_p=2, a_p=3, b_p=4):
    builder = TopologyBuilder("t")
    builder.add_spout("s", spout_p)
    builder.add_bolt("a", a_p)
    builder.add_bolt("b", b_p)
    builder.connect("s", "a", ShuffleGrouping())
    builder.connect("a", "b", ShuffleGrouping())
    return builder.build()


class TestResources:
    def test_paper_defaults(self):
        r = Resources()
        assert r.cpu == 1.0
        assert r.ram_bytes == 2 * 1024**3

    def test_validation(self):
        with pytest.raises(PackingError):
            Resources(cpu=0)
        with pytest.raises(PackingError):
            Resources(ram_bytes=0)
        with pytest.raises(PackingError):
            Resources(disk_bytes=-1)

    def test_plus(self):
        total = Resources(1, 100).plus(Resources(2, 200))
        assert total.cpu == 3
        assert total.ram_bytes == 300


class TestRoundRobin:
    def test_all_instances_packed_once(self):
        plan = RoundRobinPacking().pack(topology(), 3)
        assert len(plan.all_instances()) == 9
        task_ids = [i.task_id for i in plan.all_instances()]
        assert task_ids == list(range(9))

    def test_round_robin_balance(self):
        plan = RoundRobinPacking().pack(topology(), 3)
        sizes = sorted(len(c.instances) for c in plan.containers)
        assert sizes == [3, 3, 3]

    def test_spouts_packed_first(self):
        plan = RoundRobinPacking().pack(topology(), 9)
        first_two = [plan.instance(0), plan.instance(1)]
        assert all(i.component == "s" for i in first_two)

    def test_too_many_containers_rejected(self):
        with pytest.raises(PackingError, match="empty containers"):
            RoundRobinPacking().pack(topology(), 100)

    def test_at_least_one_container(self):
        with pytest.raises(PackingError):
            RoundRobinPacking().pack(topology(), 0)

    def test_pack_with_density(self):
        plan = RoundRobinPacking().pack_with_density(topology(), 2)
        assert plan.num_containers() == 5  # ceil(9 / 2)

    def test_custom_resources_applied(self):
        resources = Resources(cpu=2.0, ram_bytes=4 * 1024**3)
        plan = RoundRobinPacking(resources).pack(topology(), 3)
        assert all(
            i.resources == resources for i in plan.all_instances()
        )


class TestPackingPlan:
    def test_instances_of_ordered_by_index(self):
        plan = RoundRobinPacking().pack(topology(), 3)
        indices = [i.component_index for i in plan.instances_of("b")]
        assert indices == [0, 1, 2, 3]

    def test_unknown_component(self):
        plan = RoundRobinPacking().pack(topology(), 3)
        with pytest.raises(PackingError, match="no instances"):
            plan.instances_of("zzz")

    def test_container_lookup(self):
        plan = RoundRobinPacking().pack(topology(), 3)
        assert plan.container(1).container_id == 1
        with pytest.raises(PackingError):
            plan.container(99)

    def test_container_of_and_colocated(self):
        plan = RoundRobinPacking().pack(topology(), 1)
        assert plan.container_of("s", 0) == plan.container_of("a", 0)

    def test_instance_id_format(self):
        plan = RoundRobinPacking().pack(topology(), 3)
        assert plan.instances_of("a")[1].instance_id == "a_1"

    def test_duplicate_task_ids_rejected(self):
        instance = InstancePlan("a", 0, 1, 1)
        other = InstancePlan("b", 0, 1, 1)
        with pytest.raises(PackingError, match="duplicate task id"):
            PackingPlan("t", [ContainerPlan(1, (instance, other))])

    def test_non_contiguous_indices_rejected(self):
        bad = [
            InstancePlan("a", 0, 0, 1),
            InstancePlan("a", 2, 1, 1),
        ]
        with pytest.raises(PackingError, match="not contiguous"):
            PackingPlan("t", [ContainerPlan(1, tuple(bad))])

    def test_summary_is_json_friendly(self):
        import json

        plan = RoundRobinPacking().pack(topology(), 2)
        encoded = json.dumps(plan.summary())
        assert "containers" in encoded

    def test_required_resources(self):
        plan = RoundRobinPacking().pack(topology(), 3)
        container = plan.containers[0]
        total = container.required_resources()
        assert total.cpu == len(container.instances)
