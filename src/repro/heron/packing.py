"""Packing: assigning component instances to containers.

The paper's evaluation uses "Heron's round-robin packing algorithm — 1 CPU
core and 2GB RAM per instance" (Section V-A).  A packing plan (Fig. 1b) is
the physical representation of a topology: a list of containers, each
holding instances plus a stream manager and a metrics manager process.

Instances are identified two ways, mirroring Heron:

* a *task id* — a globally unique integer over the whole topology;
* a *component index* — the instance's 0-based index within its component,
  which is what the models index by (``t_lambda(i)`` in Eq. 6).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import PackingError
from repro.heron.topology import LogicalTopology

__all__ = [
    "Resources",
    "InstancePlan",
    "ContainerPlan",
    "PackingPlan",
    "RoundRobinPacking",
    "FirstFitDecreasingPacking",
]


@dataclass(frozen=True)
class Resources:
    """Resource allocation: CPU cores, RAM bytes, disk bytes."""

    cpu: float = 1.0
    ram_bytes: int = 2 * 1024**3
    disk_bytes: int = 0

    def __post_init__(self) -> None:
        if self.cpu <= 0:
            raise PackingError("cpu allocation must be positive")
        if self.ram_bytes <= 0:
            raise PackingError("ram allocation must be positive")
        if self.disk_bytes < 0:
            raise PackingError("disk allocation must be non-negative")

    def plus(self, other: "Resources") -> "Resources":
        """Component-wise sum (used for container totals)."""
        return Resources(
            self.cpu + other.cpu,
            self.ram_bytes + other.ram_bytes,
            self.disk_bytes + other.disk_bytes,
        )


@dataclass(frozen=True)
class InstancePlan:
    """One packed instance: component, indices and resources."""

    component: str
    component_index: int
    task_id: int
    container_id: int
    resources: Resources = field(default_factory=Resources)

    @property
    def instance_id(self) -> str:
        """The Heron-style instance name, e.g. ``splitter_2``."""
        return f"{self.component}_{self.component_index}"


@dataclass(frozen=True)
class ContainerPlan:
    """One container: id plus the instances packed into it.

    Each container also runs a stream manager and a metrics manager; the
    simulator models the stream manager explicitly and those processes are
    implied by the container's existence here.
    """

    container_id: int
    instances: tuple[InstancePlan, ...]

    def required_resources(self) -> Resources:
        """Sum of the packed instances' allocations."""
        if not self.instances:
            raise PackingError(f"container {self.container_id} is empty")
        cpu = sum(i.resources.cpu for i in self.instances)
        ram = sum(i.resources.ram_bytes for i in self.instances)
        disk = sum(i.resources.disk_bytes for i in self.instances)
        return Resources(cpu, ram, disk)


class PackingPlan:
    """The physical layout of a topology: containers and instances."""

    def __init__(
        self,
        topology_name: str,
        containers: list[ContainerPlan],
    ) -> None:
        if not containers:
            raise PackingError("a packing plan needs at least one container")
        self.topology_name = topology_name
        self.containers = list(containers)
        self._by_component: dict[str, list[InstancePlan]] = {}
        self._by_task: dict[int, InstancePlan] = {}
        for container in self.containers:
            for instance in container.instances:
                self._by_component.setdefault(instance.component, []).append(instance)
                if instance.task_id in self._by_task:
                    raise PackingError(f"duplicate task id {instance.task_id}")
                self._by_task[instance.task_id] = instance
        for instances in self._by_component.values():
            instances.sort(key=lambda i: i.component_index)
            indices = [i.component_index for i in instances]
            if indices != list(range(len(indices))):
                raise PackingError(
                    f"component {instances[0].component!r} instance indices "
                    f"are not contiguous: {indices}"
                )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def instances_of(self, component: str) -> list[InstancePlan]:
        """Instances of one component, ordered by component index."""
        try:
            return list(self._by_component[component])
        except KeyError:
            raise PackingError(f"no instances packed for {component!r}") from None

    def parallelism(self, component: str) -> int:
        """Number of packed instances for a component."""
        return len(self.instances_of(component))

    def instance(self, task_id: int) -> InstancePlan:
        """The instance with a given task id."""
        try:
            return self._by_task[task_id]
        except KeyError:
            raise PackingError(f"no instance with task id {task_id}") from None

    def all_instances(self) -> list[InstancePlan]:
        """Every packed instance, ordered by task id."""
        return [self._by_task[tid] for tid in sorted(self._by_task)]

    def components(self) -> list[str]:
        """Component names present in the plan, sorted."""
        return sorted(self._by_component)

    def container(self, container_id: int) -> ContainerPlan:
        """The container with a given id."""
        for container in self.containers:
            if container.container_id == container_id:
                return container
        raise PackingError(f"no container with id {container_id}")

    def container_of(self, component: str, component_index: int) -> int:
        """The container id hosting one instance."""
        for instance in self.instances_of(component):
            if instance.component_index == component_index:
                return instance.container_id
        raise PackingError(
            f"no instance {component}_{component_index} in the plan"
        )

    def num_containers(self) -> int:
        """Number of containers in the plan."""
        return len(self.containers)

    def summary(self) -> dict[str, object]:
        """A JSON-friendly description of the plan."""
        return {
            "topology": self.topology_name,
            "containers": [
                {
                    "id": c.container_id,
                    "instances": [
                        {
                            "component": i.component,
                            "component_index": i.component_index,
                            "task_id": i.task_id,
                            "cpu": i.resources.cpu,
                            "ram_bytes": i.resources.ram_bytes,
                        }
                        for i in c.instances
                    ],
                }
                for c in self.containers
            ],
        }

    def __repr__(self) -> str:
        return (
            f"PackingPlan({self.topology_name!r}, "
            f"containers={self.num_containers()}, "
            f"instances={len(self._by_task)})"
        )


class RoundRobinPacking:
    """Heron's round-robin packing algorithm.

    Instances are enumerated component by component (topology insertion
    order, spouts first as Heron does) and dealt out to containers in
    round-robin order.  Every instance receives the same resource
    allocation, matching the paper's "1 CPU core and 2GB RAM per
    instance".

    Parameters
    ----------
    instance_resources:
        Allocation for every instance.
    """

    def __init__(self, instance_resources: Resources | None = None) -> None:
        self.instance_resources = instance_resources or Resources()

    def pack(
        self,
        topology: LogicalTopology,
        num_containers: int,
    ) -> PackingPlan:
        """Produce a plan with the requested number of containers."""
        if num_containers < 1:
            raise PackingError("num_containers must be >= 1")
        total = topology.total_instances()
        if num_containers > total:
            raise PackingError(
                f"cannot spread {total} instances over {num_containers} "
                "containers without empty containers"
            )
        ordered = [c for c in topology.components.values() if c.is_spout]
        ordered += [c for c in topology.components.values() if not c.is_spout]
        assignments: dict[int, list[InstancePlan]] = {
            cid: [] for cid in range(1, num_containers + 1)
        }
        task_id = 0
        slot = 0
        for component in ordered:
            for index in range(component.parallelism):
                container_id = (slot % num_containers) + 1
                assignments[container_id].append(
                    InstancePlan(
                        component=component.name,
                        component_index=index,
                        task_id=task_id,
                        container_id=container_id,
                        resources=self.instance_resources,
                    )
                )
                task_id += 1
                slot += 1
        containers = [
            ContainerPlan(cid, tuple(instances))
            for cid, instances in assignments.items()
        ]
        return PackingPlan(topology.name, containers)

    def pack_with_density(
        self,
        topology: LogicalTopology,
        instances_per_container: int,
    ) -> PackingPlan:
        """Produce a plan given a maximum container density.

        The paper notes users "allocate a large number of containers", so
        few instances share a stream manager; this helper sizes the
        container count from a target density instead of a fixed count.
        """
        if instances_per_container < 1:
            raise PackingError("instances_per_container must be >= 1")
        total = topology.total_instances()
        num_containers = -(-total // instances_per_container)
        return self.pack(topology, num_containers)


class FirstFitDecreasingPacking:
    """Heron's other built-in packer: first-fit-decreasing bin packing.

    Instances are sorted by their resource demand (CPU, then RAM,
    largest first) and placed into the first container whose remaining
    capacity fits them; a new container opens when none fits.  Unlike
    round robin this packs *tightly*, which is what makes the "few
    containers, shared stream manager" ablation realistic.

    Parameters
    ----------
    container_resources:
        Capacity of one container.  Defaults to four of the paper's
        per-instance allocations (4 cores / 8 GB).
    instance_resources:
        Per-component resource demands; components missing from the
        mapping use the paper's default 1 core / 2 GB.
    """

    def __init__(
        self,
        container_resources: Resources | None = None,
        instance_resources: Mapping[str, Resources] | None = None,
    ) -> None:
        self.container_resources = container_resources or Resources(
            cpu=4.0, ram_bytes=8 * 1024**3
        )
        self.instance_resources = dict(instance_resources or {})

    def _demand(self, component: str) -> Resources:
        return self.instance_resources.get(component, Resources())

    def pack(self, topology: LogicalTopology) -> PackingPlan:
        """Produce a first-fit-decreasing plan (container count emerges)."""
        pending: list[tuple[str, int]] = []
        ordered = [c for c in topology.components.values() if c.is_spout]
        ordered += [c for c in topology.components.values() if not c.is_spout]
        for component in ordered:
            for index in range(component.parallelism):
                pending.append((component.name, index))
        pending.sort(
            key=lambda item: (
                -self._demand(item[0]).cpu,
                -self._demand(item[0]).ram_bytes,
                item[0],
                item[1],
            )
        )
        bins: list[dict] = []
        for name, index in pending:
            demand = self._demand(name)
            if (
                demand.cpu > self.container_resources.cpu
                or demand.ram_bytes > self.container_resources.ram_bytes
            ):
                raise PackingError(
                    f"instance of {name!r} demands more than one "
                    "container's capacity"
                )
            placed = False
            for bin_ in bins:
                if (
                    bin_["cpu"] + demand.cpu <= self.container_resources.cpu
                    and bin_["ram"] + demand.ram_bytes
                    <= self.container_resources.ram_bytes
                ):
                    bin_["members"].append((name, index, demand))
                    bin_["cpu"] += demand.cpu
                    bin_["ram"] += demand.ram_bytes
                    placed = True
                    break
            if not placed:
                bins.append(
                    {
                        "members": [(name, index, demand)],
                        "cpu": demand.cpu,
                        "ram": demand.ram_bytes,
                    }
                )
        task_ids: dict[tuple[str, int], int] = {}
        next_task = 0
        for component in ordered:
            for index in range(component.parallelism):
                task_ids[(component.name, index)] = next_task
                next_task += 1
        containers = []
        for container_id, bin_ in enumerate(bins, start=1):
            instances = tuple(
                InstancePlan(
                    component=name,
                    component_index=index,
                    task_id=task_ids[(name, index)],
                    container_id=container_id,
                    resources=demand,
                )
                for name, index, demand in bin_["members"]
            )
            containers.append(ContainerPlan(container_id, instances))
        return PackingPlan(topology.name, containers)
