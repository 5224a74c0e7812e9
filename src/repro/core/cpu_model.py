"""The CPU-load prediction use case (paper Section V-E).

"We observed that the CPU usage is linearly related to the input rate per
instance."  The prediction pipeline has two steps:

1. the throughput model maps a target *source* rate to per-instance
   *input* rates (the ``{input rates, source rates}`` model);
2. a fitted slope :math:`\\psi = \\text{CPU load} / \\text{input rate}`
   amplifies those input rates into CPU cores (the
   ``{CPU load, input rates}`` model).

Chaining the two predicts component CPU under a different source rate
*and* a different parallelism — the paper's Figs. 11-12, where the error
is slightly above the throughput error "because error has accumulated
for the chained prediction steps".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.calibration import LinearFit, fit_linear
from repro.core.component_model import ComponentModel
from repro.errors import MetricsError, ModelError
from repro.heron.metrics import MetricNames
from repro.heron.topology import LogicalTopology
from repro.timeseries.store import TopologyFrame

__all__ = ["CpuModel", "fit_cpu_model", "fit_cpu_models"]


@dataclass(frozen=True)
class CpuModel:
    """Linear CPU model for one component's instances.

    ``psi`` is cores per (tuple/unit-time) of instance input;
    ``base_cores`` is the per-instance idle load (gateway keep-alive,
    GC, metrics) exposed by the regression intercept.
    """

    component: str
    psi: float
    base_cores: float = 0.0

    def __post_init__(self) -> None:
        if self.psi < 0:
            raise ModelError("psi must be non-negative")

    def instance_cpu(self, input_rate: float) -> float:
        """CPU cores of one instance at a given input rate."""
        if input_rate < 0:
            raise ModelError("input_rate must be non-negative")
        return self.base_cores + self.psi * input_rate

    def component_cpu(
        self, model: ComponentModel, source_rate: float
    ) -> float:
        """Total component cores at a source rate (chained prediction).

        Step 1 uses the throughput model to turn the source rate into
        per-instance *processed* rates (inputs clip at the instance
        saturation point once backpressure caps intake); step 2 applies
        ``psi`` per instance and sums.
        """
        inputs = model.instance_input_rates(source_rate)
        processed = np.minimum(inputs, model.instance.saturation_point)
        return float(
            np.sum(self.base_cores + self.psi * processed)
        )


def fit_cpu_model(
    component: str,
    instance_input_rates: np.ndarray,
    instance_cpu_loads: np.ndarray,
    with_intercept: bool = True,
) -> tuple[CpuModel, LinearFit]:
    """Fit ``psi`` (and optionally a base load) from observations.

    Observations are *per-instance* pairs: mean input rate and measured
    CPU cores over the same window.  Component-level series should be
    divided by parallelism before calling (the paper's model is per
    instance).
    """
    fit = fit_linear(
        instance_input_rates,
        instance_cpu_loads,
        through_origin=not with_intercept,
    )
    if fit.slope < 0:
        raise ModelError(
            f"fitted a negative CPU slope for {component!r}; observations "
            "do not look like CPU-vs-input data"
        )
    return CpuModel(component, fit.slope, max(0.0, fit.intercept)), fit


def fit_cpu_models(
    topology: LogicalTopology, frame: TopologyFrame, warmup_minutes: int
) -> dict[str, CpuModel]:
    """Per-bolt CPU coefficients from the per-instance series of a frame.

    Pairs every instance's per-minute ``received-count`` with its
    ``cpu-load`` gauge (aligned on shared timestamps), concatenates the
    instances of a component and fits one per-instance ``psi``.  Bolts
    whose series are missing or degenerate are simply skipped — CPU
    estimates are an optional enrichment of the sweep output, not a
    prerequisite for throughput ranking.
    """
    models: dict[str, CpuModel] = {}
    for spec in topology.bolts():
        try:
            received = frame.group(MetricNames.RECEIVED_COUNT, spec.name)
            cpu = frame.group(MetricNames.CPU_LOAD, spec.name)
        except MetricsError:
            continue
        by_instance = {
            instance: row
            for row, instance in enumerate(cpu.tag_values("instance"))
        }
        pairs = [
            (row, by_instance[instance])
            for row, instance in enumerate(received.tag_values("instance"))
            if instance in by_instance
        ]
        if not pairs:
            continue
        rows, cpu_rows = map(list, zip(*pairs))
        if received.block is not None and cpu.block is not None:
            # Every instance shares its group's timestamps: one alignment
            # for the whole component instead of one per instance.
            aligned = [(
                received.timestamps, received.block[rows],
                cpu.timestamps, cpu.block[cpu_rows],
            )]
        else:
            inputs, loads = received.series(), cpu.series()
            aligned = [
                (inputs[i].timestamps, inputs[i].values,
                 loads[j].timestamps, loads[j].values)
                for i, j in pairs
            ]
        xs: list[np.ndarray] = []
        ys: list[np.ndarray] = []
        for x_ts, x, y_ts, y in aligned:
            common = np.intersect1d(x_ts, y_ts)[warmup_minutes:]
            if common.shape[0] < 3:
                continue
            xs.append(x[..., np.isin(x_ts, common)].ravel())
            ys.append(y[..., np.isin(y_ts, common)].ravel())
        if not xs:
            continue
        try:
            model, _ = fit_cpu_model(
                spec.name, np.concatenate(xs), np.concatenate(ys)
            )
        except ModelError:
            continue
        models[spec.name] = model
    return models
