"""Auto-scaling strategies: the reactive baseline vs model-guided scaling.

The paper's motivation: "some existing systems, such as Dhalion, use
several scaling rounds to converge on the users' expected throughput
SLO, which is a time-consuming process.  Conversely, Caladrius can
predict the expected throughput given a new set of component
parallelisms" (Section V).  This package makes that comparison
executable:

* :class:`~repro.autoscaler.cluster.SimulatedCluster` — a redeployable
  topology: one continuous metrics history across deployments, which is
  what both scalers observe;
* :class:`~repro.autoscaler.reactive.ReactiveScaler` — the Dhalion-style
  baseline: observe, find the backpressure symptom, scale the bottleneck
  out one step, redeploy, repeat until the SLO holds;
* :class:`~repro.autoscaler.guided.ModelGuidedScaler` — the Caladrius
  loop: observe once, calibrate the Eq. 1-14 models, size every
  component analytically, deploy once, verify.

The accuracy runner's ``autoscaler`` section (``python -m
repro.experiments.runner --only autoscaler``) reproduces the headline
claim: rounds and deployments to the SLO for both strategies.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "cluster": ("SimulatedCluster",),
        "guided": ("ModelGuidedScaler",),
        "reactive": ("ReactiveScaler",),
        "types": ("ScalingRound", "ScalingTrace"),
    },
)
