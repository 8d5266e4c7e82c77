"""Recorders: the instrumentation protocol and its implementations.

The observability layer is built around one contract: every hook site in
the simulator holds a *recorder slot* that is either ``None`` (telemetry
off -- the default everywhere) or an enabled recorder.  Hook sites guard
their work behind a single ``if rec is not None`` so the fast kernel's
hot paths pay exactly one pointer comparison when telemetry is off.

Three event kinds exist, mirroring the Chrome trace-event model the
exporter targets:

* **counters** -- monotonically accumulated named integers
  (:meth:`Recorder.count`), e.g. ``coherence.invalidations``;
* **histograms** -- named value distributions (:meth:`Recorder.observe`),
  e.g. the invalidation fan-out of each directory write;
* **spans and instants** -- timestamped intervals / points on a
  ``(pid, tid)`` track (:meth:`Recorder.sim_span`,
  :meth:`Recorder.sim_instant`, :meth:`Recorder.wall_span`).  Two
  timebases coexist: ``PID_SIM`` tracks carry
  *simulated-cycle* timestamps (speculation episodes, drain stalls,
  directory transactions), ``PID_CAMPAIGN`` tracks carry *wall-clock*
  microseconds relative to the recorder's creation (per-job campaign
  timings).

Recorders only ever *observe*: no hook schedules an event, advances a
clock, or touches simulated state, which is the whole determinism
argument -- a telemetry-on run is byte-identical to a telemetry-off run
by construction, and the differential suite pins it.

:func:`active` normalizes the public API's ``Optional[Recorder]`` into
the internal hot-path slot: disabled recorders (``NullRecorder``) become
``None`` at wiring time, so a single ``if`` really is the whole cost.
``tests/test_obs.py::TestRecorderWiring`` checks that no slot ever holds
a disabled recorder.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: Track (pid) carrying simulated-cycle timestamps.
PID_SIM = 1
#: Track (pid) carrying wall-clock timestamps (microseconds since the
#: recorder was created).
PID_CAMPAIGN = 2

#: tid offset for per-core directory/coherence tracks under ``PID_SIM``
#: (core tracks use the bare core id).
COHERENCE_TID_BASE = 1000


@dataclass
class SpanEvent:
    """One closed interval on a track (Chrome trace ``"X"`` event)."""

    pid: int
    tid: int
    name: str
    ts: int
    dur: int
    args: Optional[Dict[str, Any]] = None


@dataclass
class InstantEvent:
    """One point event on a track (Chrome trace ``"i"`` event)."""

    pid: int
    tid: int
    name: str
    ts: int
    args: Optional[Dict[str, Any]] = None


class Recorder:
    """The instrumentation protocol; the base class is a no-op.

    Subclasses that actually record set ``enabled = True``; hook wiring
    (:func:`active`) drops disabled recorders so the hot paths never see
    them.
    """

    enabled = False

    # -- counters and histograms -------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        """Accumulate ``value`` into the named counter."""

    def observe(self, name: str, value: int) -> None:
        """Record one sample of the named distribution."""

    # -- spans and instants, one method per timebase ---------------------

    def sim_span(self, tid: int, name: str, start: int, end: int,
                 args: Optional[Dict[str, Any]] = None) -> None:
        """A span on the simulated-cycle timebase (ts in cycles)."""

    def sim_instant(self, tid: int, name: str, ts: int,
                    args: Optional[Dict[str, Any]] = None) -> None:
        """An instant on the simulated-cycle timebase."""

    def wall_span(self, tid: int, name: str, start_s: float, end_s: float,
                  args: Optional[Dict[str, Any]] = None) -> None:
        """A span on the wall-clock timebase (``time.time()`` seconds)."""


class NullRecorder(Recorder):
    """The default recorder: records nothing, costs nothing.

    Passing it anywhere a recorder is accepted is exactly equivalent to
    passing ``None``: :func:`active` strips it before any hook site can
    see it.
    """


class TraceRecorder(Recorder):
    """In-memory recorder backing the exporters.

    Wall-clock timestamps are stored relative to ``wall_origin`` (the
    ``time.time()`` at construction) in microseconds, so campaign spans
    from worker processes -- which report epoch seconds -- land on the
    same axis as spans recorded in the parent.
    """

    enabled = True

    def __init__(self) -> None:
        self.counters: Counter = Counter()
        self.histograms: Dict[str, Counter] = {}
        self.spans: List[SpanEvent] = []
        self.instants: List[InstantEvent] = []
        #: epoch seconds at creation; the wall timebase's zero.
        self.wall_origin = time.time()
        #: optional labels describing what was profiled (exported verbatim).
        self.meta: Dict[str, Any] = {}

    # -- counters and histograms -------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] += value

    def observe(self, name: str, value: int) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Counter()
        hist[value] += 1

    # -- spans and instants, one method per timebase ---------------------

    def sim_span(self, tid: int, name: str, start: int, end: int,
                 args: Optional[Dict[str, Any]] = None) -> None:
        self.spans.append(SpanEvent(PID_SIM, tid, name, start,
                                    max(0, end - start), args))

    def sim_instant(self, tid: int, name: str, ts: int,
                    args: Optional[Dict[str, Any]] = None) -> None:
        self.instants.append(InstantEvent(PID_SIM, tid, name, ts, args))

    def _wall_us(self, epoch_s: float) -> int:
        return int((epoch_s - self.wall_origin) * 1e6)

    def wall_span(self, tid: int, name: str, start_s: float, end_s: float,
                  args: Optional[Dict[str, Any]] = None) -> None:
        start = self._wall_us(start_s)
        self.spans.append(SpanEvent(PID_CAMPAIGN, tid, name, start,
                                    max(0, self._wall_us(end_s) - start),
                                    args))


def active(recorder: Optional[Recorder]) -> Optional[Recorder]:
    """Normalize a public-API recorder into the internal hot-path slot.

    ``None`` and disabled recorders (:class:`NullRecorder`) both become
    ``None``, so hook sites need exactly one ``is not None`` check.
    """
    if recorder is not None and recorder.enabled:
        return recorder
    return None
