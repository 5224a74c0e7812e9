"""The single-instance throughput model (paper Eq. 1-5).

An instance processes tuples at a rate proportional to its input until it
saturates (Fig. 3):

.. math::  T_i(t_\\lambda) = \\min(\\alpha_i t_\\lambda, ST_i)

where :math:`\\alpha_i` is the I/O coefficient determined by the
processing logic, :math:`SP_i` the saturation point (input rate above
which backpressure triggers) and :math:`ST_i = \\alpha_i SP_i` the
saturation throughput.  With multiple output streams each stream ``j``
has its own :math:`\\alpha_j` and :math:`ST_j` sharing the same saturation
point (Eq. 4-5).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import ModelError

__all__ = ["InstanceModel"]

DEFAULT_STREAM = "default"


@dataclass(frozen=True)
class InstanceModel:
    """Piecewise-linear throughput model of one instance.

    Parameters
    ----------
    alphas:
        Output stream name → I/O coefficient (tuples emitted on that
        stream per tuple processed).  Sinks use an empty mapping: they
        still have a processing model (input side) but no outputs.
    saturation_point:
        Maximum input rate the instance can process (tuples per unit
        time, any consistent unit).  ``math.inf`` models an instance that
        never saturates in the observed range.
    """

    alphas: Mapping[str, float] = field(default_factory=dict)
    saturation_point: float = math.inf

    def __post_init__(self) -> None:
        if self.saturation_point <= 0:
            raise ModelError("saturation_point must be positive")
        for stream, alpha in self.alphas.items():
            if alpha < 0:
                raise ModelError(
                    f"alpha for stream {stream!r} must be non-negative"
                )

    # ------------------------------------------------------------------
    # Derived constants
    # ------------------------------------------------------------------
    def alpha(self, stream: str = DEFAULT_STREAM) -> float:
        """The I/O coefficient of one output stream."""
        try:
            return self.alphas[stream]
        except KeyError:
            raise ModelError(f"instance has no output stream {stream!r}") from None

    def saturation_throughput(self, stream: str = DEFAULT_STREAM) -> float:
        """``ST = alpha * SP`` for one output stream (Eq. 1)."""
        return self.alpha(stream) * self.saturation_point

    # ------------------------------------------------------------------
    # Forward model
    # ------------------------------------------------------------------
    def processed_rate(self, input_rate: float) -> float:
        """Tuples actually processed per unit time (input side of Fig. 4).

        Below the saturation point the instance keeps up; above it the
        processed rate pins at ``SP``.
        """
        if input_rate < 0:
            raise ModelError("input_rate must be non-negative")
        return min(input_rate, self.saturation_point)

    def output_rate(
        self, input_rate: float, stream: str = DEFAULT_STREAM
    ) -> float:
        """Eq. 2: ``min(alpha * t, ST)`` for a single input stream."""
        return self.alpha(stream) * self.processed_rate(input_rate)

    def is_saturated(self, input_rate: float) -> bool:
        """True when the input rate meets or exceeds the saturation point."""
        if input_rate < 0:
            raise ModelError("input_rate must be non-negative")
        return input_rate >= self.saturation_point

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "InstanceModel":
        """An instance model with its capacity scaled by ``factor``.

        Alphas are intrinsic to the code, so only the saturation point
        moves — used when modelling faster/slower hardware.
        """
        if factor <= 0:
            raise ModelError("scale factor must be positive")
        return InstanceModel(dict(self.alphas), self.saturation_point * factor)
