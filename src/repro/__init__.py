"""repro — a reproduction of Caladrius (ICDE 2019).

Caladrius is a performance modelling service for distributed stream
processing systems: it forecasts a topology's future traffic and
predicts its throughput, backpressure risk and CPU load under proposed
parallelism changes, without deploying anything.

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.heron` — a simulated Heron cluster (the evaluation
  substrate: topologies, packing, backpressure, metrics).
* :mod:`repro.timeseries` — the metrics database.
* :mod:`repro.graph` — the property-graph / path-enumeration layer.
* :mod:`repro.forecasting` — Prophet-style traffic forecasting.
* :mod:`repro.core` — the paper's models (Eq. 1-14) and calibration.
* :mod:`repro.api` — the RESTful service tier.
* :mod:`repro.experiments` — the accuracy harness regenerating the
  paper's figures, ablations and model-quality records.

Quickstart::

    from repro.heron import build_word_count, HeronSimulation, TopologyTracker
    from repro.timeseries import MetricsStore
    from repro.core import ThroughputPredictionModel

    topology, packing, logic = build_word_count()
    store = MetricsStore()
    sim = HeronSimulation(topology, packing, logic, store)
    sim.set_source_rate("sentence-spout", 8e6)
    sim.run(minutes=10)

    tracker = TopologyTracker()
    tracker.register(topology, packing)
    model = ThroughputPredictionModel(tracker, store)
    print(model.predict("word-count", source_rate=20e6).as_dict())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
