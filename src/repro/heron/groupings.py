"""Stream groupings: how tuples are partitioned to downstream instances.

The paper (Section II-B) names shuffle grouping (random, load-balanced) and
fields grouping (hash of one or more tuple fields, modulo downstream
parallelism) as the two common types, plus less common ones.  Because the
simulator is fluid, a grouping here answers the rate-level question: *given
an upstream emission rate, what share does each downstream instance
receive?*  Fields grouping answers it exactly the way Heron routes tuples —
``hash(key) % p`` over the stream's key distribution — so key skew, and the
way a parallelism change re-shuffles key-to-instance assignment, are both
reproduced faithfully.
"""

from __future__ import annotations

import math
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import TopologyError

__all__ = [
    "KeyDistribution",
    "Grouping",
    "ShuffleGrouping",
    "FieldsGrouping",
    "AllGrouping",
    "GlobalGrouping",
]


def stable_hash(key: str) -> int:
    """A process-stable string hash (CRC32).

    Python's builtin ``hash`` is randomised per process; routing must be
    deterministic across runs, exactly as Heron's field hashing is.
    """
    return zlib.crc32(key.encode("utf8"))


@dataclass(frozen=True)
class KeyDistribution:
    """A finite key vocabulary with relative frequencies.

    This describes the data flowing on a stream — for the Word Count
    topology it is the word-frequency distribution of the corpus.  Fields
    grouping uses it to compute per-instance traffic shares; the keys are
    hashed once per distribution, the first time shares are asked for.
    """

    keys: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.keys) != len(self.weights):
            raise TopologyError("keys and weights must have equal length")
        if not self.keys:
            raise TopologyError("a key distribution needs at least one key")
        if any(w < 0 for w in self.weights):
            raise TopologyError("key weights must be non-negative")
        total = sum(self.weights)
        if not math.isfinite(total):  # a NaN or infinite weight
            raise TopologyError("key weights must be finite")
        if total <= 0:
            raise TopologyError("key weights must not all be zero")

    @classmethod
    def uniform(cls, keys: Sequence[str]) -> "KeyDistribution":
        """Every key equally likely."""
        n = len(keys)
        return cls(tuple(keys), tuple(1.0 / n for _ in range(n)))

    @classmethod
    def zipf(cls, keys: Sequence[str], exponent: float = 1.0) -> "KeyDistribution":
        """Zipf-distributed frequencies over the given keys (rank order)."""
        if not exponent >= 0:  # NaN included
            raise TopologyError("zipf exponent must be a non-negative number")
        ranks = np.arange(1, len(keys) + 1, dtype=np.float64)
        raw = ranks**-exponent
        norm = raw / raw.sum()
        return cls(tuple(keys), tuple(float(w) for w in norm))

    def normalised_weights(self) -> np.ndarray:
        """Weights scaled to sum to one."""
        w = np.asarray(self.weights, dtype=np.float64)
        return w / w.sum()

    @cached_property
    def _hashes(self) -> np.ndarray:
        """Every key's :func:`stable_hash`, in key order."""
        return np.fromiter(
            (stable_hash(key) for key in self.keys), np.int64, len(self.keys)
        )

    def shares_mod(self, parallelism: int) -> np.ndarray:
        """Traffic share per downstream instance under ``hash % p`` routing.

        Entry ``j`` is the probability mass of keys whose stable hash is
        congruent to ``j`` modulo ``parallelism``.  This is the stationary
        routing distribution the paper calls the "routing probability" of a
        fields-grouped connection.  ``bincount`` adds the weights in key
        order, one key at a time, so each entry is the same sum a per-key
        loop makes.
        """
        if parallelism <= 0:
            raise TopologyError("parallelism must be positive")
        return np.bincount(
            self._hashes % parallelism,
            self.normalised_weights(),
            minlength=parallelism,
        )

    def imbalance(self, parallelism: int) -> float:
        """Max share over mean share — 1.0 means perfectly balanced."""
        shares = self.shares_mod(parallelism)
        return float(shares.max() * parallelism)


class Grouping:
    """Base class for stream groupings.

    Subclasses implement :meth:`shares`: the stationary fraction of an
    upstream instance's emissions that each of ``p`` downstream instances
    receives.  Shares must be non-negative; for partitioning groupings
    they sum to 1, for replicating groupings (all grouping) each entry is 1.
    """

    name = "grouping"

    def shares(self, parallelism: int) -> np.ndarray:
        """Per-downstream-instance traffic fractions."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self).__name__)


class ShuffleGrouping(Grouping):
    """Round-robin / random partitioning: each instance gets ``1/p``.

    Equation 8 of the paper: shuffle-grouped connections share output
    tuples evenly across all downstream instances, irrespective of tuple
    content or traffic variation.
    """

    name = "shuffle"

    def shares(self, parallelism: int) -> np.ndarray:
        """Uniform ``1/p`` per downstream instance (Eq. 8)."""
        if parallelism <= 0:
            raise TopologyError("parallelism must be positive")
        return np.full(parallelism, 1.0 / parallelism)


class FieldsGrouping(Grouping):
    """Key-hash partitioning: ``hash(fields) % p``.

    Parameters
    ----------
    fields:
        Names of the tuple fields hashed for routing (metadata only in the
        fluid simulator, but kept because Caladrius reports them).
    key_distribution:
        The key vocabulary and frequencies on the stream.  Determines the
        per-instance shares; skewed vocabularies produce biased routing
        exactly as in production.
    """

    name = "fields"

    def __init__(
        self,
        fields: Sequence[str],
        key_distribution: KeyDistribution,
    ) -> None:
        if not fields:
            raise TopologyError("fields grouping requires at least one field")
        self.fields = tuple(fields)
        self.key_distribution = key_distribution

    def shares(self, parallelism: int) -> np.ndarray:
        """Key-mass per instance under ``hash % p`` routing."""
        return self.key_distribution.shares_mod(parallelism)

    def __repr__(self) -> str:
        return f"FieldsGrouping(fields={self.fields!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldsGrouping)
            and other.fields == self.fields
            and other.key_distribution == self.key_distribution
        )

    def __hash__(self) -> int:
        return hash(("fields", self.fields))


class AllGrouping(Grouping):
    """Replication: every downstream instance receives every tuple."""

    name = "all"

    def shares(self, parallelism: int) -> np.ndarray:
        """Every instance receives the full stream (share 1 each)."""
        if parallelism <= 0:
            raise TopologyError("parallelism must be positive")
        return np.ones(parallelism)


class GlobalGrouping(Grouping):
    """All tuples go to the single lowest-index downstream instance."""

    name = "global"

    def shares(self, parallelism: int) -> np.ndarray:
        """Everything routes to the lowest-index instance."""
        if parallelism <= 0:
            raise TopologyError("parallelism must be positive")
        shares = np.zeros(parallelism)
        shares[0] = 1.0
        return shares
