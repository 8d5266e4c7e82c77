"""Host-speed calibration: CPU time rescaled to a reference host speed.

The benchmark runs on a shared host whose speed for one single-threaded
Python process swings by up to about 2x, within seconds as well as over
minutes, so raw CPU seconds of the same work differ by 30 % between runs.
Every measured segment of work is therefore bracketed by short slices of
a fixed reference loop and charged at the mean speed those two slices
measured, raised to ``SENSITIVITY``.  The reference loop is a toy
event-driven cache model that uses the interpreter the way the simulator
does (``heapq``, dicts, small ``__slots__`` objects); it lives in the
benchmark, so no change to the simulator changes it.

The host mostly switches between a fast and a slow state (on a 2-CPU
Xeon VM, about 1.5 and 2.6 microseconds per reference step).  The slow
state costs the simulator less than it costs the reference loop: the
same conv-oltp cell took 0.76 s CPU between fast slices and 1.07 s
between slow ones, a factor of 1.41 against the loop's 1.69, and 1.41
is 1.69 to the power 0.66.  Fitting the exponent over per-cell samples
of studies-cold and conv-oltp gave 0.7 for both; that is
``SENSITIVITY``.

A rescaled figure reads as the CPU seconds the work would take on a host
where one step of the reference loop takes ``REFERENCE_US_PER_STEP``
microseconds.  Only ratios of segment to slice time matter, so the
constant fixes the unit, not the result of a comparison.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import List, Tuple

#: reference loop steps in one slice (about 20-40 ms on a 2-CPU Xeon VM).
SLICE_STEPS = 12_000

#: CPU microseconds per reference loop step on the reference host (a
#: quiet 2-CPU Xeon VM).
REFERENCE_US_PER_STEP = 1.5

#: how the simulator's CPU time scales with the reference loop's: a host
#: state that slows the loop by a factor f slows the simulator by about
#: f ** SENSITIVITY.
SENSITIVITY = 0.7

_CORES = 16
_LINES = 4096
_CAPACITY = 256


class _Line:
    __slots__ = ("tag", "valid", "stamp")

    def __init__(self, tag: int, stamp: int) -> None:
        self.tag, self.valid, self.stamp = tag, True, stamp


def reference_loop(steps: int) -> int:
    """Run the fixed cache model for ``steps`` events; returns its hits.

    Sixteen cores take turns through a time-ordered heap, each touching
    a pseudo-random line (a fixed linear congruential sequence) of a
    private FIFO cache; a miss invalidates the line's other holders
    through a directory.
    """
    heap = [(core, core) for core in range(_CORES)]
    caches: List[dict] = [{} for _ in range(_CORES)]
    directory: dict = {}
    x = 12345
    hits = 0
    for _ in range(steps):
        now, core = heapq.heappop(heap)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        addr = (x >> 4) % _LINES
        cache = caches[core]
        line = cache.get(addr)
        if line is not None and line.valid:
            hits += 1
            line.stamp = now
            delay = 1
        else:
            holders = directory.setdefault(addr, set())
            for other in holders:
                stale = caches[other].get(addr)
                if stale is not None:
                    stale.valid = False
            holders.clear()
            holders.add(core)
            if len(cache) >= _CAPACITY:
                del cache[next(iter(cache))]
            cache[addr] = _Line(addr, now)
            delay = 20 + (x & 7)
        heapq.heappush(heap, (now + delay, core))
    return hits


class ReferenceClock:
    """Measures segments of work between calibration slices.

    :meth:`start` runs a slice and opens a segment; each :meth:`split`
    closes the open segment, runs a slice and opens the next one.  A
    segment's CPU seconds are rescaled by the mean speed of the slices
    on either side of it; the slices' own time is in no segment.
    """

    def __init__(self) -> None:
        #: CPU microseconds per step of every slice run so far.
        self.rates: List[float] = []
        self.cpu_s = 0.0
        self.ref_s = 0.0
        self._rate = 0.0
        self._mark = 0.0

    def slice(self) -> float:
        """Run one slice; returns its CPU microseconds per step.

        The cyclic garbage collector is off during the slice: a full
        collection there would walk the simulator's live objects and
        charge their number to the host's speed.  The loop makes no
        cycles, so reference counting frees everything it allocates.
        """
        gc.disable()
        try:
            start = time.process_time()
            reference_loop(SLICE_STEPS)
            rate = (time.process_time() - start) * 1e6 / SLICE_STEPS
        finally:
            gc.enable()
        self.rates.append(rate)
        return rate

    @staticmethod
    def rescale(cpu_s: float, before: float, after: float) -> float:
        """CPU seconds at the reference speed, given the bracketing rates."""
        speed = REFERENCE_US_PER_STEP * 2.0 / (before + after)
        return cpu_s * speed ** SENSITIVITY

    def start(self) -> float:
        """Reset the totals; run a slice and open the first segment.

        Returns the slice's rate, so it can close a bracket as well.
        """
        self.cpu_s = self.ref_s = 0.0
        self._rate = self.slice()
        self._mark = time.process_time()
        return self._rate

    def split(self) -> None:
        """Close the open segment, charging it; open the next one."""
        cpu = time.process_time() - self._mark
        rate = self.slice()
        self.cpu_s += cpu
        self.ref_s += self.rescale(cpu, self._rate, rate)
        self._rate = rate
        self._mark = time.process_time()

    def stop(self) -> Tuple[float, float]:
        """Close the last segment -> (CPU seconds, reference seconds)."""
        self.split()
        return self.cpu_s, self.ref_s
