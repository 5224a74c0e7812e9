"""The paper's modelling assumptions, each broken on purpose.

Every function here is one runner section: it runs its experiment on the
simulated cluster at the scale ``quick`` selects and returns records
(:func:`repro.experiments.records.record`).

* :func:`skew` — Eq. 9 scales a fields-grouped component as if its keys
  were balanced (Section IV-B2b);
* :func:`stmgr` — assumption 1, the stream manager is never the
  bottleneck;
* :func:`watermarks` — assumption 2, backpressure time is either ~0 or
  the whole minute.
"""

from __future__ import annotations

import numpy as np

from repro.core.calibration import fit_piecewise_linear
from repro.experiments.figures import fig09_counter_model
from repro.experiments.records import record
from repro.experiments.sweeps import run_point, run_sweep
from repro.heron.corpus import SyntheticCorpus
from repro.heron.simulation import SimulationConfig
from repro.heron.wordcount import WordCountParams

__all__ = ["skew", "stmgr", "watermarks"]

M = 1e6

_SKEWED = (
    "Eq. 9 assumes balanced keys; the hot instance saturates first "
    "(Section IV-B2b)"
)
_UNMODELLED = (
    "the model has no stream-manager term: paper assumption 1 does not "
    "hold here"
)
_ABSORBED = (
    "queues this deep absorb the whole window: the metric reads 0 while "
    "saturated"
)


def skew(quick: bool) -> list[dict]:
    """Key skew vs fields-grouping scaling: Counter p=3, Zipf swept.

    The uniform model predicts 3 x 70 M words/min whatever the keys; the
    share-aware one (the paper's "customized key grouping" escape hatch)
    divides that by the key distribution's imbalance under ``hash % p``.
    Both are scored against the saturation point the simulation shows.
    """
    counter_p, uniform_sp = 3, 3 * 70 * M
    minutes = 1 if quick else 2
    rates = np.arange(6 * M, 60 * M + 1, 12 * M if quick else 6 * M)
    records = []
    for exponent in (0.0, 0.6, 1.0, 1.4):
        corpus = SyntheticCorpus(zipf_exponent=exponent)
        imbalance = corpus.word_distribution.imbalance(counter_p)
        params = WordCountParams(
            splitter_parallelism=7, counter_parallelism=counter_p, corpus=corpus
        )
        sweep = run_sweep(
            params, rates, runs=1 if quick else 3, seed=51,
            warmup_minutes=minutes, measure_minutes=minutes,
        )
        measured = fig09_counter_model(sweep)["p3_input_sp_tpm"]
        config = f"zipf={exponent}"
        records += [
            record("skew", config, "uniform_error",
                   abs(uniform_sp - measured) / measured,
                   reason=_SKEWED if exponent >= 1.0 else None),
            record("skew", config, "share_aware_error",
                   abs(uniform_sp / imbalance - measured) / measured),
        ]
    return records


def stmgr(quick: bool) -> list[dict]:
    """Stream-manager capacity vs the instance-capacity model.

    Splitter p=2 (model SP 22 M tuples/min) with every stream manager
    limited to 0.8 M tuples/s: generous when 8 containers share the
    ~3.2 M tuples/s at SP, binding when 2 do.
    """
    minutes = 1 if quick else 2
    rates = np.arange(4 * M, 44 * M + 1, 8 * M if quick else 4 * M)
    records = []
    for containers, label, reason in (
        (8, "2 per container", None),
        (2, "7 per container", _UNMODELLED),
    ):
        params = WordCountParams(
            splitter_parallelism=2, counter_parallelism=4, containers=containers
        )
        sweep = run_sweep(
            params, rates, runs=1 if quick else 3, seed=41,
            warmup_minutes=minutes, measure_minutes=minutes,
            config=SimulationConfig(stmgr_capacity_tps=0.8e6, seed=41),
        )
        x, y = sweep.observations("splitter", "input")
        sp = fit_piecewise_linear(x, y).saturation_point
        records.append(
            record("stmgr", label, "sp_error", abs(sp - 22 * M) / (22 * M),
                   reason=reason)
        )
    return records


def watermarks(quick: bool) -> list[dict]:
    """Watermark scale vs backpressure-time bimodality.

    A Splitter instance held above its SP (14 M vs 11 M tuples/min)
    should read ~60 s of backpressure per minute; Heron's 100 MB / 50 MB
    watermarks are scaled from 1/4 to 16 times.
    """
    params = WordCountParams(splitter_parallelism=1, counter_parallelism=3)
    minutes = 2 if quick else 4
    records = []
    for scale in (0.25, 1.0, 4.0, 16.0):
        point = run_point(
            params, 14 * M, seed=31,
            warmup_minutes=minutes, measure_minutes=minutes,
            config=SimulationConfig(
                high_watermark_bytes=100e6 * scale,
                low_watermark_bytes=50e6 * scale,
                seed=31,
            ),
        )
        records.append(
            record("watermarks", f"scale={scale}", "saturated_bp_ms",
                   point.backpressure_ms, unit="ms", better="higher",
                   paper=60_000.0, reason=_ABSORBED if scale == 16.0 else None)
        )
    return records
