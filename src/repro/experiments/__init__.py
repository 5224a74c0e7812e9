"""Experiment harnesses regenerating the paper's evaluation figures.

Each ``figNN_*`` function in :mod:`repro.experiments.figures` reproduces
one figure of the paper's Section V on top of the simulated Heron
cluster: it runs the Word Count topology sweep the paper ran, calibrates
the Caladrius models exactly as the paper does, and returns both the
measured series and the model predictions so callers (the benchmark
suite, tests, EXPERIMENTS.md) can compare shapes and errors.

:mod:`repro.experiments.sweeps` holds the shared sweep runner: fresh
simulation per (source rate, repetition), warmup discarded, steady-state
minutes averaged — the paper's "experiments were allowed to run ... to
attain steady state before measurements were retrieved".
"""
