"""The one source of time: every time read, sleep and timed wait.

Caladrius answers from time windows — cache TTLs, request deadlines,
breaker cool-downs, drain timeouts, client back-off — so a component that
read one clock while it waited on another would see windows that never
close.  Everything under ``repro`` that reads the time, sleeps or waits
with a timeout does it through a :class:`Clock`.  The components a test
drives in virtual time take one (``clock=``); everything else uses
:data:`SYSTEM_CLOCK`, the operating system's clock.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from typing import TypeVar

__all__ = ["Clock", "SYSTEM_CLOCK"]

T = TypeVar("T")


class Clock:
    """Monotonic time and the waits measured on it.

    This class is the operating system's clock; a replacement overrides
    all four methods so that reads and waits agree.
    """

    #: Seconds on a monotonic scale (the stdlib function itself, so a
    #: read costs what ``time.monotonic()`` costs).
    monotonic = staticmethod(time.monotonic)
    #: Block the calling thread for ``seconds``.
    sleep = staticmethod(time.sleep)

    def wait(self, event: threading.Event, timeout: float | None) -> bool:
        """Block until ``event`` is set or ``timeout`` passes; whether it is set."""
        return event.wait(timeout)

    def wait_for(
        self,
        condition: threading.Condition,
        predicate: Callable[[], T],
        timeout: float | None,
    ) -> T:
        """:meth:`threading.Condition.wait_for` on this clock.

        Called with ``condition`` held; returns the predicate's last value,
        falsy when ``timeout`` passed first.
        """
        return condition.wait_for(predicate, timeout)


#: The operating system's clock.
SYSTEM_CLOCK = Clock()
