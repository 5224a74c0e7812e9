"""Shared result types for the scaling strategies."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ScalingRound", "ScalingTrace"]

#: Mean topology backpressure per minute above which a window fails the
#: SLO, whatever its throughput.
BACKPRESSURE_SLO_MS = 1_000.0


@dataclass(frozen=True)
class ScalingRound:
    """One observe-(maybe scale)-redeploy iteration.

    ``parallelisms`` is the configuration observed during this round;
    ``action`` describes what the scaler decided afterwards.
    """

    index: int
    parallelisms: dict[str, int]
    output_tpm: float
    backpressure_ms: float
    meets_slo: bool
    action: str


@dataclass
class ScalingTrace:
    """The full history of one scaler run."""

    strategy: str
    slo_output_tpm: float
    rounds: list[ScalingRound] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """True when the final round met the SLO."""
        return bool(self.rounds) and self.rounds[-1].meets_slo

    @property
    def deployments(self) -> int:
        """Redeployments performed (rounds that changed the config)."""
        changes = 0
        for previous, current in zip(self.rounds, self.rounds[1:]):
            if current.parallelisms != previous.parallelisms:
                changes += 1
        return changes

    def observe_minutes(self, minutes_per_round: int) -> int:
        """Total simulated observation time spent converging."""
        return len(self.rounds) * minutes_per_round

    def summary(self) -> dict[str, object]:
        """A compact JSON-friendly report."""
        return {
            "strategy": self.strategy,
            "converged": self.converged,
            "rounds": len(self.rounds),
            "deployments": self.deployments,
            "final_parallelisms": (
                self.rounds[-1].parallelisms if self.rounds else {}
            ),
            "final_output_tpm": (
                self.rounds[-1].output_tpm if self.rounds else 0.0
            ),
        }
