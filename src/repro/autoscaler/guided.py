"""The Caladrius-guided scaler: observe once, model, deploy once.

The paper's promise: dry-run modelling "significantly reduc[es] the time
taken to find a packing plan to satisfy the SLO".  The loop:

1. observe the current deployment for one window (enough minutes that
   the saturated components show their plateaus);
2. calibrate the Eq. 1-14 models from exactly that window;
3. compute, per bolt, the *demand* — the rate the component would
   receive if nothing throttled (source rate amplified through the
   fitted alphas) — and size its parallelism as
   ``ceil(1.15 * demand / instance_SP)``, a 15 % margin for calibration
   noise and traffic variance; components whose fits
   never saturated keep their parallelism (they were never the problem);
4. deploy that configuration once, then verify with a final observation
   window.
"""

from __future__ import annotations

import math

from repro.autoscaler.cluster import SimulatedCluster
from repro.autoscaler.types import (
    BACKPRESSURE_SLO_MS,
    ScalingRound,
    ScalingTrace,
)
from repro.errors import ModelError
from repro.heron.metrics import MetricNames
from repro.serving.fingerprint import canonical_json
from repro.sweep import PlanSweepEngine, evaluate_plans

__all__ = ["ModelGuidedScaler"]

#: Capacity margin a bolt is sized with, over its demand.
_HEADROOM = 1.15


class ModelGuidedScaler:
    """One observation, one model-sized deployment, one verification.

    Parameters
    ----------
    cluster:
        The deployment to manage.
    slo_output_tpm:
        Sink throughput target (tuples per minute).
    observe_minutes:
        Length of the calibration window (and of the verification
        window after deployment).
    """

    strategy = "model-guided (Caladrius)"

    def __init__(
        self,
        cluster: SimulatedCluster,
        slo_output_tpm: float,
        observe_minutes: int = 3,
    ) -> None:
        if slo_output_tpm <= 0:
            raise ModelError("slo_output_tpm must be positive")
        if observe_minutes < 2:
            raise ModelError(
                "observe_minutes must be >= 2 (one warmup + one measured)"
            )
        self.cluster = cluster
        self.slo_output_tpm = slo_output_tpm
        self.observe_minutes = observe_minutes
        # Calibrate-once / evaluate-many: the engine's calibration cache
        # keeps the observation window's calibration under its metrics
        # data_version, so candidate evaluation — however many plans the
        # search scores — never re-reads metrics while the window is
        # unchanged.
        self._engine = PlanSweepEngine(cluster.tracker, cluster.store)

    def run(self, source_tpm: float) -> ScalingTrace:
        """Size the topology for ``source_tpm`` and verify.

        ``source_tpm`` is the traffic the topology must sustain — the
        current rate, or a traffic-model forecast for preemptive scaling.
        """
        if source_tpm <= 0:
            raise ModelError("source_tpm must be positive")
        trace = ScalingTrace(self.strategy, self.slo_output_tpm)

        # Round 0: observe, then calibrate on everything the *current*
        # deployment has seen.  The paper's calibration needs points in
        # both regimes ("one in the non-saturation interval and one in
        # the saturation interval"), which production traffic variation
        # provides; metrics from before the deployment describe a
        # different physical plan and are excluded.
        window_start = self.cluster.deployed_at_seconds
        self.cluster.run(self.observe_minutes)
        output = self.cluster.recent_output_tpm(self.observe_minutes)
        backpressure = self.cluster.recent_backpressure_ms(self.observe_minutes)
        meets = (
            output >= self.slo_output_tpm
            and backpressure <= BACKPRESSURE_SLO_MS
        )
        parallelisms = self.cluster.parallelisms()
        if meets:
            trace.rounds.append(
                ScalingRound(0, parallelisms, output, backpressure, True,
                             "slo already met; no scaling needed")
            )
            return trace

        proposal = self._size(source_tpm, window_start)
        trace.rounds.append(
            ScalingRound(0, parallelisms, output, backpressure, False,
                         f"model sizes the topology to {proposal}")
        )
        self.cluster.deploy(proposal)

        # Round 1: verification window on the sized deployment.
        self.cluster.run(self.observe_minutes)
        output = self.cluster.recent_output_tpm(self.observe_minutes)
        backpressure = self.cluster.recent_backpressure_ms(self.observe_minutes)
        meets = (
            output >= self.slo_output_tpm
            and backpressure <= BACKPRESSURE_SLO_MS
        )
        trace.rounds.append(
            ScalingRound(
                1, self.cluster.parallelisms(), output, backpressure, meets,
                "verified" if meets else "verification FAILED",
            )
        )
        return trace

    def _size(self, source_tpm: float, window_start: int) -> dict[str, int]:
        """Analytical sizing from the calibrated models.

        Instance capacities come from two sources, in preference order:

        1. **Backpressure attribution** — a bolt that spent minutes
           suppressing the spouts was processing flat out, so its
           per-instance processed rate over those minutes *is* its
           capacity.  This is exact even when several components are
           entangled.
        2. **The fitted saturation point** — for bolts that plateaued
           without raising backpressure, the plateau was inherited from
           a throttling neighbour, so the fit is only a *lower bound*
           on capacity; sizing with it over-provisions conservatively
           (the paper: "any modelling system is subject to errors so
           some re-deployment may be required" — a conservative bound
           avoids the re-deployment at the cost of some slack).

        Bolts that never plateaued keep their parallelism unless demand
        exceeds what they were ever offered, in which case the fit bound
        applies.
        """
        artifact = self._engine.artifact(
            self.cluster.topology_name, since_seconds=window_start
        )
        model, fits = artifact.base, artifact.fits
        topology = artifact.tracked.topology
        demand: dict[str, float] = {
            spout.name: source_tpm / len(topology.spouts())
            for spout in topology.spouts()
        }
        proposal: dict[str, int] = {}
        for spec in topology.topological_order():
            name = spec.name
            incoming = demand.get(name, 0.0)
            if not spec.is_spout:
                capacity = self._instance_capacity(
                    name, spec.parallelism, model, window_start
                )
                if math.isfinite(capacity) and capacity > 0:
                    needed = math.ceil(_HEADROOM * incoming / capacity)
                    proposal[name] = max(needed, 1)
                else:
                    # Never stressed: keep the current parallelism and
                    # let the verification round catch under-sizing.
                    proposal[name] = spec.parallelism
                alpha = (
                    fits[name].alpha if topology.outputs(name) else 0.0
                )
            else:
                alpha = 1.0
            for stream in topology.outputs(name):
                demand[stream.destination] = (
                    demand.get(stream.destination, 0.0) + incoming * alpha
                )
        return self._best_candidate(artifact, source_tpm, proposal)

    def _best_candidate(
        self,
        artifact,
        source_tpm: float,
        proposal: dict[str, int],
    ) -> dict[str, int]:
        """Refine the analytic proposal through the plan-sweep kernel.

        The proposal plus its upward neighborhood (each component +1,
        and all +1) is scored in one batch against the memoized
        artifact.  The cheapest plan predicted to clear the output SLO
        wins, preferring low backpressure risk; candidates only grow the
        proposal, so the search can correct under-sizing but never
        shrinks what the analytic bound asked for.  With no viable
        candidate the proposal stands and verification has the last
        word.
        """
        candidates: list[dict[str, int]] = [dict(proposal)]
        for name in proposal:
            bumped = dict(proposal)
            bumped[name] += 1
            candidates.append(bumped)
        if proposal:
            candidates.append({name: p + 1 for name, p in proposal.items()})
        predictions = evaluate_plans(artifact, source_tpm, candidates)
        viable = [
            (plan, prediction)
            for plan, prediction in zip(candidates, predictions)
            if prediction.output_rate >= self.slo_output_tpm
        ]
        if not viable:
            return dict(proposal)
        best, _ = min(
            viable,
            key=lambda item: (
                item[1].backpressure_risk != "low",
                sum(item[0].values()),
                canonical_json(item[0]),
            ),
        )
        return best

    def _instance_capacity(
        self,
        component: str,
        parallelism: int,
        model,
        window_start: int,
    ) -> float:
        """Best available per-instance capacity estimate for one bolt."""
        store = self.cluster.store
        tags = {
            "topology": self.cluster.topology_name,
            "component": component,
        }
        bp = store.aggregate(
            MetricNames.BACKPRESSURE_TIME_MS, tags, start=window_start
        )
        processed = store.aggregate(
            MetricNames.EXECUTE_COUNT, tags, start=window_start
        )
        bp_aligned, proc_aligned = bp.align(processed)
        saturated = bp_aligned.values > 5_000.0
        if saturated.any():
            return float(proc_aligned.values[saturated].mean()) / parallelism
        return model.component(component).instance.saturation_point
