"""Single-flight coalescing: one computation per key, shared by waiters.

When N identical requests arrive concurrently, exactly one of them (the
*leader*) runs the computation; the other N-1 block on an event and
receive the leader's result (or its exception).  Keys are the same
``(descriptor, plan revision, data_version)`` tuples the cache uses, so
"identical" means identical inputs, not merely identical URLs.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable
from typing import Any

from repro.telemetry import Telemetry

__all__ = ["SingleFlight"]

_UNSET = object()


class _Call:
    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Any = _UNSET
        self.error: BaseException | None = None


class SingleFlight:
    """Coalesce concurrent calls that share a key.

    ``telemetry`` keeps the ``serving.singleflight.led`` /
    ``.coalesced`` counters.
    """

    def __init__(self, telemetry: Telemetry | None = None) -> None:
        self._lock = threading.Lock()
        self._calls: dict[Hashable, _Call] = {}
        self.telemetry = telemetry or Telemetry()

    def do(self, key: Hashable, fn: Callable[[], Any]) -> tuple[Any, bool]:
        """Run ``fn`` once per in-flight key; returns ``(result, led)``.

        ``led`` is True for the call that actually executed ``fn``.  An
        exception raised by the leader propagates to every waiter.
        """
        with self._lock:
            call = self._calls.get(key)
            if call is None:
                call = _Call()
                self._calls[key] = call
                leader = True
            else:
                leader = False
        self.telemetry.count(
            "serving.singleflight.led" if leader else "serving.singleflight.coalesced"
        )
        if not leader:
            call.done.wait()
            if call.error is not None:
                raise call.error
            return call.result, False
        try:
            call.result = fn()
        except BaseException as exc:
            call.error = exc
            raise
        finally:
            with self._lock:
                del self._calls[key]
            call.done.set()
        return call.result, True
