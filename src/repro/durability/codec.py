"""JSON codecs for durable snapshots of service state.

Two state holders survive restarts: the :class:`MetricsStore` series
(plus its per-topology version counters, so content-addressed cache
keys stay monotonic across a recovery) and the
:class:`TopologyTracker`'s registered topologies — logical plan,
groupings and packing plan, exactly enough to rebuild equivalent
:class:`TrackedTopology` records.  Everything here is pure data
transformation; atomic file handling lives in
:mod:`repro.durability.checkpoint`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.errors import DurabilityError
from repro.heron.groupings import (
    AllGrouping,
    FieldsGrouping,
    GlobalGrouping,
    Grouping,
    KeyDistribution,
    ShuffleGrouping,
)
from repro.heron.packing import (
    ContainerPlan,
    InstancePlan,
    PackingPlan,
    Resources,
)
from repro.heron.topology import ComponentSpec, LogicalTopology, Stream
from repro.heron.tracker import TopologyTracker
from repro.timeseries.store import MetricsStore

__all__ = [
    "encode_store_state",
    "restore_store_state",
    "encode_tracker_state",
    "restore_tracker_state",
    "store_content_hash",
]


# ----------------------------------------------------------------------
# MetricsStore
# ----------------------------------------------------------------------
def encode_store_state(store: MetricsStore) -> dict[str, Any]:
    """The store's full series content and version counters as JSON."""
    with store._lock:
        series = [
            {
                "name": key.name,
                "tags": key.tag_dict(),
                "timestamps": list(buffer.timestamps),
                "values": list(buffer.values),
            }
            for key, buffer in store._series.items()
        ]
        versions = [
            [topology, count] for topology, count in store._versions.items()
        ]
        latest = store._latest
    return {"series": series, "versions": versions, "latest": latest}


def restore_store_state(store: MetricsStore, state: dict[str, Any]) -> int:
    """Load a snapshot into an (empty) store; returns samples restored.

    Versions are restored *before* the series are replayed through
    :meth:`MetricsStore.write_many` (one batch per series), so the final
    counters are snapshot values plus replay increments — never lower
    than at snapshot time.
    """
    if not isinstance(state, dict) or "series" not in state:
        raise DurabilityError("malformed store snapshot: no 'series' list")
    with store._lock:
        for topology, count in state.get("versions", []):
            store._versions[topology] = max(
                store._versions.get(topology, 0), int(count)
            )
    samples = 0
    for record in state["series"]:
        store.write_many(
            record["name"],
            zip(record["timestamps"], record["values"]),
            record["tags"],
        )
        samples += len(record["timestamps"])
    return samples


def store_content_hash(store: MetricsStore) -> str:
    """SHA-256 over the store's *series content*, in canonical form.

    The hash covers every series (name, tags, timestamps, values) but
    deliberately excludes the data-version counters: recovery replays
    snapshot samples through the normal write path, which over-bumps
    versions (by design — cache keys must never go backwards), so two
    stores holding identical samples can disagree on counters.  The
    cluster tier compares a shard against its follower replica with this
    hash: equal hashes mean byte-identical series data.
    """
    with store._lock:
        series = sorted(
            (
                key.name,
                sorted(key.tag_dict().items()),
                list(buffer.timestamps),
                list(buffer.values),
            )
            for key, buffer in store._series.items()
        )
    canonical = json.dumps(series, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf8")).hexdigest()


# ----------------------------------------------------------------------
# Groupings
# ----------------------------------------------------------------------
def _encode_grouping(grouping: Grouping) -> dict[str, Any]:
    if isinstance(grouping, FieldsGrouping):
        return {
            "name": "fields",
            "fields": list(grouping.fields),
            "keys": list(grouping.key_distribution.keys),
            "weights": list(grouping.key_distribution.weights),
        }
    if isinstance(grouping, (ShuffleGrouping, AllGrouping, GlobalGrouping)):
        return {"name": grouping.name}
    raise DurabilityError(
        f"cannot snapshot grouping type {type(grouping).__name__}"
    )


def _decode_grouping(data: dict[str, Any]) -> Grouping:
    name = data.get("name")
    simple = {
        "shuffle": ShuffleGrouping,
        "all": AllGrouping,
        "global": GlobalGrouping,
    }
    if name in simple:
        return simple[name]()
    if name == "fields":
        return FieldsGrouping(
            data["fields"],
            KeyDistribution(
                tuple(data["keys"]), tuple(float(w) for w in data["weights"])
            ),
        )
    raise DurabilityError(f"unknown grouping {name!r} in snapshot")


# ----------------------------------------------------------------------
# TopologyTracker
# ----------------------------------------------------------------------
def _encode_topology(topology: LogicalTopology) -> dict[str, Any]:
    return {
        "name": topology.name,
        "components": [
            {"name": c.name, "kind": c.kind, "parallelism": c.parallelism}
            for c in topology.components.values()
        ],
        "streams": [
            {
                "source": s.source,
                "destination": s.destination,
                "stream": s.name,
                "grouping": _encode_grouping(s.grouping),
            }
            for s in topology.streams
        ],
    }


def _decode_topology(data: dict[str, Any]) -> LogicalTopology:
    components = {
        c["name"]: ComponentSpec(c["name"], c["kind"], int(c["parallelism"]))
        for c in data["components"]
    }
    streams = [
        Stream(
            s["source"],
            s["destination"],
            _decode_grouping(s["grouping"]),
            s.get("stream", "default"),
        )
        for s in data["streams"]
    ]
    return LogicalTopology(data["name"], components, streams)


def _encode_packing(packing: PackingPlan) -> dict[str, Any]:
    return {
        "topology": packing.topology_name,
        "containers": [
            {
                "id": container.container_id,
                "instances": [
                    {
                        "component": i.component,
                        "component_index": i.component_index,
                        "task_id": i.task_id,
                        "cpu": i.resources.cpu,
                        "ram_bytes": i.resources.ram_bytes,
                        "disk_bytes": i.resources.disk_bytes,
                    }
                    for i in container.instances
                ],
            }
            for container in packing.containers
        ],
    }


def _decode_packing(data: dict[str, Any]) -> PackingPlan:
    containers = []
    for entry in data["containers"]:
        instances = tuple(
            InstancePlan(
                component=i["component"],
                component_index=int(i["component_index"]),
                task_id=int(i["task_id"]),
                container_id=int(entry["id"]),
                resources=Resources(
                    cpu=float(i["cpu"]),
                    ram_bytes=int(i["ram_bytes"]),
                    disk_bytes=int(i.get("disk_bytes", 0)),
                ),
            )
            for i in entry["instances"]
        )
        containers.append(ContainerPlan(int(entry["id"]), instances))
    return PackingPlan(data["topology"], containers)


def encode_tracker_state(tracker: TopologyTracker) -> dict[str, Any]:
    """Every registered topology's plans, in revision order."""
    tracked = sorted(tracker.topologies(), key=lambda t: t.revision)
    return {
        "topologies": [
            {
                "cluster": t.cluster,
                "environ": t.environ,
                "logical": _encode_topology(t.topology),
                "packing": _encode_packing(t.packing),
            }
            for t in tracked
        ]
    }


def restore_tracker_state(
    tracker: TopologyTracker, state: dict[str, Any]
) -> int:
    """Re-register snapshotted topologies; returns how many."""
    if not isinstance(state, dict) or "topologies" not in state:
        raise DurabilityError(
            "malformed tracker snapshot: no 'topologies' list"
        )
    count = 0
    for entry in state["topologies"]:
        tracker.register(
            _decode_topology(entry["logical"]),
            _decode_packing(entry["packing"]),
            cluster=entry.get("cluster", "local"),
            environ=entry.get("environ", "test"),
        )
        count += 1
    return count
