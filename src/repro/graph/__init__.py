"""Graph substrate: the TinkerPop-flavoured property-graph layer.

Caladrius stores every topology's logical and physical graph in a graph
database behind an Apache TinkerPop abstraction and runs path calculations
over it (paper Section III-C1).  This package is the offline equivalent:

* :class:`~repro.graph.property_graph.PropertyGraph` — an in-memory
  directed property graph (vertices and edges with labels + properties)
  that enumerates simple paths.
* :mod:`~repro.graph.topology_graph` — the adapter that materialises a
  Heron logical plan into a property graph and enumerates tuple paths.
* :mod:`~repro.graph.plan_analysis` — local vs remote traffic and
  stream-manager load of a proposed packing plan.
"""
