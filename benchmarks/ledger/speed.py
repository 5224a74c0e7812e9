"""Machine-speed reference: timings are reported at a fixed machine speed.

The sandboxes this benchmark runs in share their cores with other
tenants: the same code runs up to 1.5x slower for seconds to minutes at a
time, every process in the VM alike (see README, "Stability pass").  A run
is too short to average that out, so the ledger measures it instead.  A
small fixed *reference kernel* — the two instruction mixes the pipeline is
made of: small-array numpy arithmetic and JSON + CRC32 codec work, nothing
from this repository — is timed every ~150 ms between the operations being
measured, and every timing is scaled by ``REFERENCE_S / kernel time
nearby``: it reads as it would on a machine that runs the kernel in
``REFERENCE_S``.  The kernel is the same on both sides of any comparison,
so a regression in the measured code still shows in full; what cancels is
the machine.  Raw timings and the speed factor stay in the output document.
"""

from __future__ import annotations

import bisect
import json
import os
import time
import zlib
from collections.abc import Callable

import numpy as np

#: The kernel's wall time on a quiet core of the box the sizes were frozen
#: on.  Only a unit: changing it rescales every reported timing equally.
REFERENCE_S = 0.006
#: Minimum spacing of kernel samples inside a measured loop.
SAMPLE_EVERY_S = 0.15
#: Kernel samples on each side of a one-off interval.
BRACKET = 3
#: Samples this close to an interval count as taken beside it, so a whole
#: bracket scales the interval it was taken around.
BESIDE_S = 0.1


def pin_to_one_cpu() -> int | None:
    """Confine this process, and every child it starts afterwards, to one
    CPU; which one, or ``None`` where the platform cannot.

    On a two-vCPU shared sandbox a sub-millisecond request that crosses
    vCPUs is mostly the wake-up of the other one, which depends on what the
    host is doing, not on the program (README, "One CPU").  On one CPU a
    request is a hand-over between two processes that are both awake, and
    the reference kernel is timed on the very CPU the measured work runs on.
    Call it first thing, from the main thread: new threads inherit it.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


_RECORD = {"op": "write", "name": "m", "tags": {"a": "b", "c": "d"}, "ts": 1, "v": 1.5}


def kernel() -> float:
    """Run the fixed reference work; wall seconds it took."""
    began = time.perf_counter()
    a = np.arange(1000, dtype=np.float64)
    total = 0.0
    for _ in range(300):
        b = np.minimum(a * 1.0001, 500.0)
        a = b + a * 0.5
        total += float(b.sum())
    for _ in range(600):
        raw = json.dumps(_RECORD, separators=(",", ":")).encode("utf8")
        zlib.crc32(raw)
        json.loads(raw)
    return time.perf_counter() - began


class SpeedMeter:
    """Kernel samples over time, and the speed factor of any interval."""

    def __init__(
        self,
        run_kernel: Callable[[], float] = kernel,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._kernel = run_kernel
        self._clock = clock
        self._times: list[float] = []
        self._seconds: list[float] = []
        self._held: list[tuple[float, float]] = []
        run_kernel()  # first call pays one-off allocation and cache costs

    def sample(self, repeats: int = 1) -> None:
        """Time the kernel now (call between, never inside, timed work).

        Loops sample once per visit; a one-off interval (a child start, a
        two-thread window) is bracketed by a few ``repeats`` on each side,
        because two single samples would make a noisy factor.
        """
        for _ in range(repeats):
            began = self._clock()
            took = self._kernel()
            self._times.append(began + took / 2)
            self._seconds.append(took)

    def tick(self) -> None:
        """Sample if the last sample is older than :data:`SAMPLE_EVERY_S`."""
        if not self._times or self._clock() - self._times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def hold(self, start: float, end: float) -> None:
        """Scale everything timed inside ``[start, end]`` by one factor.

        For a window in which two threads share the interpreter: a kernel
        sample taken there reads slow or fast with what the other thread
        happened to be doing, so single samples make a noisy factor and
        the window's samples together a steady one.
        """
        self._held.append((start, end))

    def factor(self, start: float, end: float | None = None) -> float:
        """What to multiply a timing taken over ``[start, end]`` by.

        Uses the kernel samples inside the interval (or inside the held
        window around it) and those within :data:`BESIDE_S` of it — at
        least the nearest one on either side; below 1 while the machine
        is slow.
        """
        end = start if end is None else end
        for held in self._held:
            if held[0] <= start and end <= held[1]:
                start, end = held
                break
        times = self._times
        first = min(
            max(0, bisect.bisect_left(times, start) - 1),
            bisect.bisect_left(times, start - BESIDE_S),
        )
        last = max(
            min(len(times), bisect.bisect_right(times, end) + 1),
            bisect.bisect_right(times, end + BESIDE_S),
        )
        nearby = self._seconds[first:last]
        if not nearby:
            raise ValueError("no kernel sample taken")
        return REFERENCE_S / (sum(nearby) / len(nearby))

    @property
    def samples(self) -> int:
        return len(self._seconds)

    def median_factor(self) -> float:
        ordered = sorted(self._seconds)
        return REFERENCE_S / ordered[len(ordered) // 2]
