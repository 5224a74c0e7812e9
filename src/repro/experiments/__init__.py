"""The accuracy harness: every experiment the repository reports.

:mod:`repro.experiments.runner` is its one entry point; each of its
sections returns records (:mod:`repro.experiments.records`) and the
runner prints them as one canonical document, committed as
``ACCURACY.json``.  The sections come from three modules:

* :mod:`repro.experiments.figures` — one function per figure of the
  paper's Section V, on the simulated Heron cluster, calibrated exactly
  as the paper does;
* :mod:`repro.experiments.ablations` — the paper's modelling
  assumptions, each broken on purpose;
* :mod:`repro.experiments.quality` — the model-quality claims the paper
  makes without a figure.

:mod:`repro.experiments.sweeps` holds the shared sweep runner: fresh
simulation per (source rate, repetition), warmup discarded, steady-state
minutes averaged — the paper's "experiments were allowed to run ... to
attain steady state before measurements were retrieved".
"""
