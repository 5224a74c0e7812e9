"""Horizontal scale-out: sharded serving with replicated metrics.

One Caladrius process is bounded by the GIL; the cluster tier scales
the service across processes while keeping the durability story intact:

* :mod:`repro.cluster.ring` — deterministic consistent-hash placement
  of topology ids onto shards;
* :mod:`repro.cluster.shard` — worker/follower process supervision:
  spawn, crash-detect, respawn onto the same data directory;
* :mod:`repro.cluster.router` — the HTTP front door: topology-keyed
  proxying, fleet-wide ``/healthz`` and ``/serving/stats`` aggregation,
  ring publication and resize;
* :mod:`repro.cluster.shipping` / :mod:`repro.cluster.follower` — WAL
  segment shipping from each shard to a read-only follower replica,
  replayed with the same CRC-framed codec crash recovery uses;
* :mod:`repro.cluster.client` — shard-aware client that routes
  data-plane calls directly to shard owners;
* :mod:`repro.cluster.epoch` — persistent per-shard writer generations
  backing the epoch-fencing protocol (no split-brain after failover).

``caladrius serve --shards N`` boots the whole tier; see
``docs/architecture.md`` ("Cluster tier" and "Failover & fencing") for
the consistency model.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "client": ("ClusterClient",),
        "epoch": ("EpochStore",),
    },
)
