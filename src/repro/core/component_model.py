"""The component throughput model (paper Eq. 6-11).

A component's rate is the sum over its ``p`` instances (Eq. 6-7).  How
the component's source rate divides among instances depends on the
upstream grouping:

* **shuffle** (Eq. 8-9): every instance receives ``t/p``, so the
  component curve is the instance curve scaled by ``p``, and a new
  parallelism ``p' = gamma * p`` scales the curve by ``gamma``;
* **fields** (Eq. 10-11): instances receive shares given by the key
  distribution under ``hash % p``.  At fixed parallelism, scaling the
  source rate by ``beta`` scales each instance's input by ``beta`` (the
  paper's steady-bias assumption) — Eq. 11.  Changing parallelism
  re-hashes keys, so predictions either assume a load-balanced data set
  (Eq. 9 applies) or take a measured/known share vector for the new
  parallelism, the "customized key grouping" escape hatch the paper
  describes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.core.instance_model import DEFAULT_STREAM, InstanceModel
from repro.errors import ModelError

__all__ = ["ComponentModel"]


class ComponentModel:
    """Throughput model of one component: ``p`` identical instances.

    Parameters
    ----------
    name:
        Component name (used in reports and chained predictions).
    instance:
        The per-instance model; all instances run the same code
        (Section IV-B2: "a component's instances have the same code").
    parallelism:
        Number of instances, ``p``.
    input_shares:
        Fraction of the component's source rate each instance receives.
        Defaults to uniform (shuffle grouping / unbiased fields
        grouping).  Must have length ``p`` and sum to 1.
    """

    def __init__(
        self,
        name: str,
        instance: InstanceModel,
        parallelism: int,
        input_shares: Sequence[float] | None = None,
    ) -> None:
        if parallelism < 1:
            raise ModelError("parallelism must be >= 1")
        self.name = name
        self.instance = instance
        self.parallelism = parallelism
        if input_shares is None:
            shares = np.full(parallelism, 1.0 / parallelism)
        else:
            shares = np.asarray(list(input_shares), dtype=np.float64)
            if shares.shape[0] != parallelism:
                raise ModelError(
                    f"{shares.shape[0]} shares for parallelism {parallelism}"
                )
            if np.any(shares < 0):
                raise ModelError("input shares must be non-negative")
            total = float(shares.sum())
            if not math.isclose(total, 1.0, rel_tol=1e-6):
                raise ModelError(f"input shares must sum to 1, got {total}")
        self.input_shares = shares
        max_share = float(shares.max())
        self._saturation_point = (
            math.inf
            if max_share == 0
            else float(instance.saturation_point) / max_share
        )

    # ------------------------------------------------------------------
    # Forward model (Eq. 6-7)
    # ------------------------------------------------------------------
    def instance_input_rates(self, source_rate: float) -> np.ndarray:
        """Eq. 6 split: per-instance source rates for a component rate."""
        if source_rate < 0:
            raise ModelError("source_rate must be non-negative")
        return self.input_shares * source_rate

    def processed_rate(self, source_rate: float) -> float:
        """Tuples processed per unit time across all instances."""
        rates = self.instance_input_rates(source_rate)
        return float(
            np.minimum(rates, self.instance.saturation_point).sum()
        )

    def output_rate(
        self, source_rate: float, stream: str = DEFAULT_STREAM
    ) -> float:
        """Eq. 7: summed instance outputs on one stream.

        Evaluated as one vectorized ``alpha * min(rates, SP)`` reduction
        so the plan-sweep batch kernel, which stacks many plans into one
        matrix and reduces along the instance axis, produces bitwise
        identical sums.
        """
        rates = self.instance_input_rates(source_rate)
        alpha = self.instance.alpha(stream)
        return float(
            (alpha * np.minimum(rates, self.instance.saturation_point)).sum()
        )

    # ------------------------------------------------------------------
    # Saturation
    # ------------------------------------------------------------------
    def saturation_point(self) -> float:
        """Source rate at which the first instance saturates.

        With uniform shares this is ``p * SP_i`` (the Eq. 9 inflection);
        with bias it is ``SP_i / max(share)`` — the hottest instance
        saturates first and triggers backpressure for the whole topology.
        """
        return self._saturation_point

    def saturation_throughput(self, stream: str = DEFAULT_STREAM) -> float:
        """Output rate once every instance is saturated.

        Instances with zero share never saturate (they also never emit),
        so this is ``alpha * SP`` summed over instances with traffic.
        """
        st = self.instance.saturation_throughput(stream)
        active = int(np.count_nonzero(self.input_shares))
        return st * active

    def is_saturated(self, source_rate: float) -> bool:
        """True when the hottest instance is at or past its SP."""
        return source_rate >= self.saturation_point()

    # ------------------------------------------------------------------
    # What-if derivations (Eq. 9 and Eq. 11)
    # ------------------------------------------------------------------
    def with_parallelism(
        self,
        new_parallelism: int,
        new_shares: Sequence[float] | None = None,
    ) -> "ComponentModel":
        """Eq. 9: the model under a different parallelism.

        With shuffle-grouped (or load-balanced fields-grouped) inputs the
        instance curve is reused and shares stay uniform — the paper's
        gamma-scaling of the observed component line.  For biased fields
        grouping the caller must supply ``new_shares`` measured or
        computed for the new parallelism (re-hashing is not invertible,
        Section IV-B2b).
        """
        if new_shares is None and not np.allclose(
            self.input_shares, self.input_shares[0]
        ):
            raise ModelError(
                f"component {self.name!r} has biased input shares; "
                "changing parallelism requires new_shares for the new "
                "instance count (hash re-assignment is not predictable)"
            )
        return ComponentModel(
            self.name, self.instance, new_parallelism, new_shares
        )

    def __repr__(self) -> str:
        return (
            f"ComponentModel({self.name!r}, p={self.parallelism}, "
            f"SP_i={self.instance.saturation_point:g})"
        )
