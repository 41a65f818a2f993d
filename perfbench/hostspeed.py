"""How fast the host runs right now, from a fixed probe.

Other tenants of a shared host slow every process on it, often by half
again and for a minute at a time, which moves a run's wall-clock medians
far more than a program change would.  The probe runs the same small mix
of work the workloads do -- interpreter bytecode, a single-threaded
float32 GEMM, blake2b over a frame-sized buffer, small numpy element-wise
ops -- and its time on either side of a round or a page says how slow
the host was meanwhile.  Workloads report times multiplied by the
factors :func:`scales` gives, that is, at the speed at which the probe
takes :data:`REFERENCE_MS`.

Only computation slows with the host.  Time an event loop sleeps on a
wall-clock timer (the serve front's flush deadline) does not, so
:class:`WaitSelector` notes those sleeps and :class:`Waits` scales only
the rest of an interval.  The cores of a shared host also slow apart
from each other, so time a workload spends waiting for its pool worker,
which runs on a core of its own, is scaled by a probe on that core.
"""

from __future__ import annotations

import hashlib
import os
import selectors
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from time import perf_counter
from typing import List, Sequence, Tuple

from measure import median

#: the probe's time on an idle 2-core x86-64 test host; times are
#: reported at this host speed
REFERENCE_MS = 1.5


@lru_cache(maxsize=1)
def _inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return (
        rng.random((512, 144), dtype=np.float32),
        rng.random((144, 64), dtype=np.float32),
        rng.random(16384, dtype=np.float32).tobytes(),
        rng.random((60, 72, 4), dtype=np.float32),
    )


def _probe_once() -> float:
    left, right, frame_bytes, frame = _inputs()
    start = perf_counter()
    total = 0
    for value in range(3000):
        total += value * value
    for _ in range(10):
        left @ right
    for _ in range(5):
        hashlib.blake2b(frame_bytes, digest_size=16).hexdigest()
    for _ in range(20):
        (frame[::2, ::2] - 0.5) * 2.0
    return (perf_counter() - start) * 1e3


def probe_ms(repeats: int = 5, core=None) -> float:
    """The probe's best time of ``repeats``, in ms; on ``core`` if one
    is given (the process moves there for the probe and back)."""
    if core is None:
        return min(_probe_once() for _ in range(repeats))
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {core})
    try:
        return probe_ms(repeats)
    finally:
        os.sched_setaffinity(0, home)


def scales(probes: Sequence[float], window: int = 3) -> List[float]:
    """Factors taking the times measured between consecutive probes to
    the reference host speed.

    Interval ``i`` lies between ``probes[i]`` and ``probes[i + 1]``; its
    factor uses the median of the ``2 * window`` probes around it, since
    one probe can catch a stall that the work beside it missed, while
    the host's speed holds for seconds.
    """
    return [
        REFERENCE_MS / median(probes[max(index + 1 - window, 0):index + 1 + window])
        for index in range(len(probes) - 1)
    ]


class WaitSelector(selectors.DefaultSelector):
    """An event loop's selector that notes when the loop sleeps.

    The serve workloads watch no file descriptors, so a ``select`` that
    may block is the loop waiting for its next timer; a ``select`` with
    a zero timeout is a poll between ready callbacks and counts as work.
    """

    def __init__(self) -> None:
        super().__init__()
        #: ``(start, end)`` of every sleep, in ``perf_counter`` seconds
        self.waits: List[Tuple[float, float]] = []

    def select(self, timeout=None):
        if timeout is not None and timeout <= 0:
            return super().select(timeout)
        start = perf_counter()
        try:
            return super().select(timeout)
        finally:
            self.waits.append((start, perf_counter()))


class Waits:
    """Waits of one stretch of a run -- event-loop sleeps, or calls out
    to the pool worker -- in time order, for scaling the intervals
    within it."""

    def __init__(self, waits: Sequence[Tuple[float, float]]) -> None:
        self.starts = [start for start, _ in waits]
        self.ends = [end for _, end in waits]
        self.total = list(accumulate(end - start for start, end in waits))

    def before(self, moment: float) -> float:
        """Seconds waited before ``moment``."""
        index = bisect_right(self.starts, moment)
        if index == 0:
            return 0.0
        return self.total[index - 1] - max(self.ends[index - 1] - moment, 0.0)

    def scale(self, start: float, end: float, factor: float,
              wait_factor: float = 1.0) -> float:
        """Seconds from ``start`` to ``end`` at the reference host speed:
        the work in between multiplied by ``factor``, the waits by
        ``wait_factor`` (1 for sleeps, which do not slow)."""
        waited = self.before(end) - self.before(start)
        return (end - start - waited) * factor + waited * wait_factor
