"""Consistent-hash ring mapping topology ids onto shards.

The ring places ``virtual_nodes`` points per shard on a 64-bit hash
circle (SHA-256 based, so the layout is identical in every process
regardless of ``PYTHONHASHSEED``) and routes a topology id to the shard
owning the first point at or after the id's hash.  Consistent hashing
gives the rebalance property the cluster tier relies on: when a shard
is added, a topology either keeps its owner or moves *to the new
shard*; when a shard is removed, only its own topologies move.  The
router and the shard-aware client both build rings from the same shard
ids through this module, so they always agree on placement.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left

__all__ = ["HashRing", "DEFAULT_VIRTUAL_NODES"]

DEFAULT_VIRTUAL_NODES = 64


def _point(label: str) -> int:
    """A deterministic 64-bit position on the circle."""
    digest = hashlib.sha256(label.encode("utf8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Immutable consistent-hash ring over integer shard ids.

    Parameters
    ----------
    shard_ids:
        The member shards.  Ids are stable names — resizing a cluster
        from N to M shards keeps ids ``0..min(N, M)-1`` and therefore
        keeps their ring points, which is what bounds key movement.
    virtual_nodes:
        Points per shard; more points smooth the ownership split.
    """

    def __init__(
        self,
        shard_ids: list[int] | tuple[int, ...],
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
    ) -> None:
        if not shard_ids:
            raise ValueError("a hash ring needs at least one shard")
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError(f"duplicate shard ids: {sorted(shard_ids)}")
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self.shard_ids = tuple(sorted(shard_ids))
        self.virtual_nodes = virtual_nodes
        points: list[tuple[int, int]] = []
        for shard in self.shard_ids:
            for vnode in range(virtual_nodes):
                points.append((_point(f"shard-{shard}:vn-{vnode}"), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def shard_for(self, key: str) -> int:
        """The shard owning ``key`` (a topology id)."""
        position = bisect_left(self._points, _point(f"key:{key}"))
        if position == len(self._points):
            position = 0  # wrap around the circle
        return self._owners[position]

    def __len__(self) -> int:
        return len(self.shard_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashRing):
            return NotImplemented
        return (
            self.shard_ids == other.shard_ids
            and self.virtual_nodes == other.virtual_nodes
        )

    def __hash__(self) -> int:
        return hash((self.shard_ids, self.virtual_nodes))

    def __repr__(self) -> str:
        return (
            f"HashRing(shards={list(self.shard_ids)}, "
            f"virtual_nodes={self.virtual_nodes})"
        )
