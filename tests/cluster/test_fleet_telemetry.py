"""The router's ``GET /telemetry`` is its fleet: each shard's snapshot
and the router's own counters, added up by the one ``merge``."""

from __future__ import annotations

from repro.telemetry import merge
from tests.cluster.simulation import World


def test_the_fleet_snapshot_is_the_sum_of_the_shards_and_the_router_counters():
    world = World()
    try:
        world.tick(6)
        for topology in range(len(world.names)):
            world.write(topology)
            world.read(topology)
        # What the router's own listener records per hosted call (the
        # simulation drives the router without one): the fleet must not
        # count a proxied request a second time.
        world.router.telemetry.observe("api.handle", 5_000_000)
        fleet = world.reader._request("GET", "/telemetry")
        shards = [
            world.worker(shard).app.telemetry.snapshot()
            for shard in range(world.shards)
        ]
        router = world.router.telemetry.snapshot("router.")
        assert fleet == merge([*shards, router])
        assert fleet["histograms"] == merge(shards)["histograms"]
        assert {
            name: value for name, value in fleet["counters"].items()
            if not name.startswith("router.")
        } == merge(shards)["counters"]
        assert merge(shards)["counters"]["shipping.passes"] > 0
        assert router["counters"]["router.proxied"] > 0
    finally:
        world.close()
