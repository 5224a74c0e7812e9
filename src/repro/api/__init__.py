"""API tier: the RESTful surface of the Caladrius service.

"Caladrius ... is deployed as a web service that can easily be launched
in a container and is accessible to developers through a RESTful API
provided by the API tier" (paper Section III).  This package implements
that tier on the standard library alone (an ``asyncio`` listener in
front of a synchronous app):

* :class:`~repro.api.app.CaladriusApp` — request routing, model dispatch
  and the asynchronous job mechanism ("it is prudent to let the API be
  asynchronous");
* :class:`~repro.api.server.CaladriusServer` — the one HTTP listener
  (also hosts the cluster's router and followers);
* :class:`~repro.api.client.CaladriusClient` — a Python client.

Endpoints (all responses JSON):

===========================================  =====================================
``GET  /topologies``                         registered topology names
``GET  /topology/{name}/logical``            logical plan
``GET  /topology/{name}/packing``            packing plan
``GET  /model/traffic/heron/{name}``         traffic forecast
``POST /model/topology/heron/{name}``        performance prediction
``GET  /model/result/{request_id}``          async result retrieval
===========================================  =====================================
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "app": ("CaladriusApp",),
        "client": ("CaladriusClient",),
        "server": ("CaladriusServer",),
    },
)
