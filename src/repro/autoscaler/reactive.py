"""The Dhalion-style reactive baseline scaler.

Dhalion "allows DSPSs to monitor their topologies, recognize symptoms of
failures and implement necessary solutions.  Usually, Dhalion scales out
topology operators to maintain their performance" (paper Section I), and
"uses several scaling rounds to converge on the users' expected
throughput SLO" (Section V).  The policy below is that loop:

1. observe the deployment for a stabilisation window;
2. if the SLO holds (sink throughput meets the target, no sustained
   backpressure), stop;
3. otherwise find the symptomatic component — the bolt reporting the
   most backpressure time, i.e. the one suppressing the spouts — scale
   it out by one instance, redeploy, and go back to 1.

Each round costs a redeployment plus a stabilisation wait, which is
exactly the cost Caladrius's dry-run predictions avoid.
"""

from __future__ import annotations

from repro.autoscaler.cluster import SimulatedCluster
from repro.autoscaler.types import (
    BACKPRESSURE_SLO_MS,
    ScalingRound,
    ScalingTrace,
)
from repro.errors import ModelError

__all__ = ["ReactiveScaler"]

#: Rounds after which the scaler gives up without meeting the SLO.
_MAX_ROUNDS = 15


class ReactiveScaler:
    """Symptom-driven scale-out, one bottleneck step per round.

    Parameters
    ----------
    cluster:
        The deployment to manage.
    slo_output_tpm:
        Sink throughput target (tuples per minute).
    observe_minutes:
        Stabilisation window per round; the paper notes waiting for a
        topology "to stabilize and for normal operation to resume" is
        what makes each reactive round expensive.
    """

    strategy = "reactive (Dhalion-style)"

    def __init__(
        self,
        cluster: SimulatedCluster,
        slo_output_tpm: float,
        observe_minutes: int = 3,
    ) -> None:
        if slo_output_tpm <= 0:
            raise ModelError("slo_output_tpm must be positive")
        if observe_minutes < 1:
            raise ModelError("observe_minutes must be >= 1")
        self.cluster = cluster
        self.slo_output_tpm = slo_output_tpm
        self.observe_minutes = observe_minutes

    def run(self) -> ScalingTrace:
        """Iterate observe→diagnose→scale until the SLO holds."""
        trace = ScalingTrace(self.strategy, self.slo_output_tpm)
        for index in range(_MAX_ROUNDS):
            self.cluster.run(self.observe_minutes)
            output = self.cluster.recent_output_tpm(self.observe_minutes)
            backpressure = self.cluster.recent_backpressure_ms(
                self.observe_minutes
            )
            meets = (
                output >= self.slo_output_tpm
                and backpressure <= BACKPRESSURE_SLO_MS
            )
            parallelisms = self.cluster.parallelisms()
            if meets:
                trace.rounds.append(
                    ScalingRound(
                        index, parallelisms, output, backpressure, True,
                        "slo met; stop",
                    )
                )
                return trace
            bottleneck = self._diagnose()
            proposal = dict(parallelisms)
            proposal[bottleneck] = parallelisms[bottleneck] + 1
            trace.rounds.append(
                ScalingRound(
                    index,
                    parallelisms,
                    output,
                    backpressure,
                    False,
                    f"scale {bottleneck} "
                    f"{parallelisms[bottleneck]} -> {proposal[bottleneck]}",
                )
            )
            self.cluster.deploy(
                {
                    name: p
                    for name, p in proposal.items()
                    if not self.cluster.topology.component(name).is_spout
                }
            )
        return trace

    def _diagnose(self) -> str:
        """The symptomatic bolt: most backpressure time, else the sink.

        When the SLO fails without backpressure (e.g. right after a
        deployment the window is still ramping), Dhalion would keep
        watching; here the slowest path is to scale the first bolt on
        the critical path, which keeps the loop making progress.
        """
        per_component = self.cluster.component_backpressure_ms(
            self.observe_minutes
        )
        if per_component and max(per_component.values()) > 0:
            return max(per_component, key=per_component.get)
        bolts = self.cluster.topology.bolts()
        return bolts[0].name
