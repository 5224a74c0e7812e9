"""The Caladrius serving layer: reuse results, absorb load.

The paper frames Caladrius as a shared *service* whose modelling calls
"may incur a wait" (Section III-A).  Serving real traffic therefore
needs more than routing: identical what-if queries must be answered
from a cache, concurrent identical queries must trigger one computation,
and overload must shed work gracefully instead of queueing unboundedly.

This package sits between :class:`~repro.api.app.CaladriusApp` routing
and the model registry:

``fingerprint``
    Content-addressed cache keys: a digest of topology name, tracked
    plan revision, metrics-window digest, model name and request
    parameters.  Any input change changes the key, so stale entries can
    never be served.
``cache``
    :class:`ResultCache` — thread-safe LRU bounded by bytes, with TTL
    expiry and per-topology invalidation.
``singleflight``
    :class:`SingleFlight` — N concurrent identical requests run one
    computation; the other N-1 wait and share the result.
``scheduler``
    :class:`PriorityScheduler` — bounded admission queue with
    interactive/precompute priority classes; sheds with a structured
    429 + ``Retry-After`` when full.
``precompute``
    :class:`WarmCachePrecomputer` — tracks popular queries and re-runs
    them when their inputs are invalidated, keeping interactive latency
    flat under churn.
``layer``
    :class:`ServingLayer` — the facade the API tier calls.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "fingerprint": ("RequestDescriptor",),
        "layer": ("ServingLayer",),
        "scheduler": ("INTERACTIVE", "PRECOMPUTE"),
    },
)
