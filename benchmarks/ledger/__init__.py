"""Performance ledger: the repo's one end-to-end + per-layer benchmark.

``python -m benchmarks.ledger run`` drives the whole Caladrius pipeline
(simulate -> ingest -> SIGKILL -> recover -> calibrate -> sweep -> serve)
against a child service process and prints every metric by name and unit;
``python -m benchmarks.ledger compare`` judges two sets of runs against
the bounds in ``BENCHMARK.json``.  ``benchmarks/ledger/run.py`` is the
single-workload entry the benchmark driver calls.  See ``README.md``.
"""

SCHEMA = "caladrius.bench/v1"
