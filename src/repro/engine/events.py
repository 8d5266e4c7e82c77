"""Discrete-event queue.

A minimal binary-heap event queue: events are typed, ``__slots__``-ed
records ordered by ``(time, sequence)``; ties in time are broken by
insertion order so the simulation is deterministic.  Two kinds exist:

* :class:`CallbackEvent` -- a generic scheduled callback (controller commit
  checks, deferred aborts, ...), created by :meth:`EventQueue.schedule`.
* :class:`StepEvent` -- a core processing step, created by
  :meth:`EventQueue.schedule_step`.  Making the hot per-op event a typed
  record instead of a fresh closure keeps the simulator's inner loop free
  of per-op lambda allocation.

Events can be cancelled; cancelled events stay in the heap (lazy deletion)
and are discarded when they reach the top.  When cancelled entries come to
dominate the heap -- which heavy speculative rollback can cause -- the heap
is compacted in place so its size stays bounded by the number of live
events.  A live-event counter keeps :meth:`EventQueue.empty` and
:func:`len` O(1) -- both sit on the simulator hot path.

The queue also supports the core's inline batching ("run-until-
interesting"): when the next heap entry is strictly later than an op's
finish time, the core processes the following op inline instead of
round-tripping through the heap, and calls :meth:`EventQueue.note_inline`
so that the clock and the processed-event count match the unbatched
execution exactly.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from ..errors import SimulationError

#: An event callback receives the event's firing time as its only argument.
EventCallback = Callable[[int], None]

#: Compaction threshold: rebuild the heap once cancelled entries outnumber
#: live ones (and the heap is big enough for the rebuild to matter).
_COMPACT_MIN_HEAP = 8


class Event:
    """One scheduled occurrence; subclasses define what firing does."""

    __slots__ = ("time", "sequence", "cancelled", "queue")

    kind = "event"

    def __init__(self, time: int, sequence: int) -> None:
        self.time = time
        self.sequence = sequence
        self.cancelled = False
        #: owning queue while the event is pending; cleared once popped so a
        #: late cancel() cannot corrupt the live-event counter.
        self.queue: Optional["EventQueue"] = None

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence

    def fire(self, now: int) -> None:
        raise NotImplementedError  # pragma: no cover - abstract

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue._note_cancelled()
            self.queue = None


class CallbackEvent(Event):
    """A generic scheduled callback."""

    __slots__ = ("callback",)

    kind = "call"

    def __init__(self, time: int, sequence: int, callback: EventCallback) -> None:
        super().__init__(time, sequence)
        self.callback = callback

    def fire(self, now: int) -> None:
        self.callback(now)


class StepEvent(Event):
    """One core processing step (the hot per-op event)."""

    __slots__ = ("core", "generation")

    kind = "step"

    def __init__(self, time: int, sequence: int, core: Any, generation: int) -> None:
        super().__init__(time, sequence)
        self.core = core
        self.generation = generation

    def fire(self, now: int) -> None:
        self.core._step(now, self.generation)


class EventQueue:
    """Deterministic min-heap of events."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._sequence = 0
        self._now = 0
        self._live = 0
        self._cancelled = 0
        self.processed = 0
        self.compactions = 0
        #: time horizon of the active run(until=...) call, if any; cores
        #: must not inline-batch ops past it (they would fire in a later
        #: run() call on the unbatched path).
        self.run_until: Optional[int] = None

    @property
    def now(self) -> int:
        """Current simulation time (last popped event or inline advance)."""
        return self._now

    def _push(self, event: Event) -> Event:
        if event.time < self._now:
            raise SimulationError(
                f"cannot schedule an event at {event.time}, "
                f"current time is {self._now}"
            )
        event.queue = self
        self._sequence += 1
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def schedule(self, time: int, callback: EventCallback) -> Event:
        """Schedule ``callback`` to run at ``time``."""
        return self._push(CallbackEvent(time, self._sequence, callback))

    def schedule_step(self, time: int, core: Any, generation: int) -> Event:
        """Schedule a core processing step at ``time`` (no closure allocated)."""
        return self._push(StepEvent(time, self._sequence, core, generation))

    def empty(self) -> bool:
        return self._live == 0

    def __len__(self) -> int:
        return self._live

    # -- cancellation and heap compaction -----------------------------------

    def _note_cancelled(self) -> None:
        self._live -= 1
        self._cancelled += 1
        if self._cancelled * 2 > len(self._heap) >= _COMPACT_MIN_HEAP:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (bounded heap size).

        Event order is untouched: the ``(time, sequence)`` keys of the
        surviving events are unique, so the rebuilt heap pops in exactly
        the order the lazy-deletion heap would have.
        """
        self._heap = [event for event in self._heap if not event.cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1

    # -- inspection and popping ----------------------------------------------

    def _peek(self) -> Optional[Event]:
        """Next live event without removing it (discards cancelled tops)."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0] if heap else None

    def next_time(self) -> Optional[int]:
        """Firing time of the next live event, or ``None`` when empty."""
        event = self._peek()
        return event.time if event is not None else None

    def pop(self) -> Optional[Event]:
        """Remove and return the next non-cancelled event, or ``None``."""
        event = self._peek()
        if event is None:
            return None
        heapq.heappop(self._heap)
        event.queue = None
        self._live -= 1
        self._now = event.time
        self.processed += 1
        return event

    # -- inline batching hooks (see Core._step_fast) -------------------------

    def note_inline(self, time: int) -> None:
        """Account one op processed inline (batched) at ``time``.

        Advances the clock and counts one processed event, exactly as if
        the op's step event had been scheduled and popped.  This keeps
        ``now`` and ``processed`` -- and therefore ``events_processed`` in
        :class:`~repro.engine.results.RunResult` -- identical between the
        batched fast path and the one-event-per-op reference path.
        """
        if time > self._now:
            self._now = time
        self.processed += 1

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Process events until the queue is empty (or a bound is reached).

        Returns the number of events processed by this call (including ops
        a core processed inline during a batched step).
        """
        start = self.processed
        previous_until = self.run_until
        self.run_until = until
        try:
            while self._live:
                if max_events is not None and self.processed - start >= max_events:
                    break
                if until is not None:
                    head = self._peek()
                    if head is None or head.time > until:
                        break
                event = self.pop()
                if event is None:
                    break
                event.fire(event.time)
        finally:
            self.run_until = previous_until
        return self.processed - start
