"""Discrete-event queue.

A minimal binary-heap event queue.  Each heap entry is a plain tuple
``(time, sequence, fn, arg)``, and firing it is one call,
``fn(time, arg)``.  The sequence counter breaks ties in time by insertion
order, so the simulation is deterministic; and since ``(time, sequence)``
is unique, :mod:`heapq` orders entries by C-level tuple comparison and
never compares ``fn`` or ``arg``.  Two methods push entries:

* :meth:`EventQueue.schedule` -- a controller callback (commit check,
  deferred abort, ...): a bound method and the argument it needs.
* :meth:`EventQueue.schedule_step` -- a core processing step: the core's
  step method and the core's generation when the step was scheduled.

Nothing is ever cancelled.  A step superseded by a rollback fires as a
no-op because its generation is stale, and a controller callback whose
speculation episode has ended fires as a no-op because its epoch is.

The queue also supports the core's inline batching ("run-until-
interesting"): when the next heap entry is strictly later than an op's
finish time, the core processes the following op inline instead of
round-tripping through the heap, and calls :meth:`EventQueue.note_inline`,
which advances the clock and counts the op as processed.  ``processed``
(heap pops plus inline ops) is what :meth:`EventQueue.run`'s
``max_events`` runaway backstop counts.  It is engine bookkeeping, not
part of a run's result.

Beyond ``processed`` the queue counts only callbacks scheduled; steps
scheduled, heap pops and inline ops follow from the sequence counter
and the heap size (see :meth:`EventQueue.tally`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError

#: An event callback receives the firing time and the scheduled argument.
EventCallback = Callable[[int, Any], None]

#: One heap entry: ``(time, sequence, fn, arg)``.
Entry = Tuple[int, int, EventCallback, Any]


class EventQueue:
    """Deterministic min-heap of ``(time, sequence, fn, arg)`` entries."""

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._sequence = 0
        self._now = 0
        self.processed = 0
        self.callbacks_scheduled = 0

    @property
    def now(self) -> int:
        """Current simulation time (last popped event or inline advance)."""
        return self._now

    def _past(self, time: int) -> SimulationError:
        return SimulationError(
            f"cannot schedule an event at {time}, current time is {self._now}"
        )

    def schedule(self, time: int, fn: EventCallback, arg: Any = None) -> None:
        """Schedule ``fn(time, arg)``."""
        if time < self._now:
            raise self._past(time)
        self.callbacks_scheduled += 1
        heappush(self._heap, (time, self._sequence, fn, arg))
        self._sequence += 1

    def schedule_step(self, time: int, fn: EventCallback, generation: int) -> None:
        """Schedule a core processing step, ``fn(time, generation)``."""
        if time < self._now:
            raise self._past(time)
        heappush(self._heap, (time, self._sequence, fn, generation))
        self._sequence += 1

    def release(self) -> None:
        """Drop every pending entry, once the run is over.

        Entries hold bound methods of cores and controllers, which hold
        this queue.  Only a run stopped early leaves entries behind.
        """
        self._heap.clear()

    def empty(self) -> bool:
        return not self._heap

    def __len__(self) -> int:
        return len(self._heap)

    def pop(self) -> Optional[Entry]:
        """Remove and return the next entry, or ``None`` when empty."""
        if not self._heap:
            return None
        entry = heappop(self._heap)
        self._now = entry[0]
        self.processed += 1
        return entry

    def tally(self) -> Dict[str, int]:
        """Heap traffic so far, by kind.

        ``steps_scheduled + callbacks_scheduled`` is every push,
        ``heap_pops + inline_ops`` is ``processed``.
        """
        pushes = self._sequence
        pops = pushes - len(self._heap)
        return {
            "steps_scheduled": pushes - self.callbacks_scheduled,
            "callbacks_scheduled": self.callbacks_scheduled,
            "heap_pops": pops,
            "inline_ops": self.processed - pops,
        }

    # -- inline batching hooks (see Core._step_fast) -------------------------

    def note_inline(self, time: int) -> None:
        """Account one op processed inline (batched) at ``time``.

        Advances the clock and counts one processed event, exactly as if
        the op's step had been scheduled and popped.  So ``now`` matches
        the one-event-per-op reference path, the ``max_events`` backstop
        counts inline ops as well as heap pops, and :meth:`tally` reports
        them as ``inline_ops``.
        """
        if time > self._now:
            self._now = time
        self.processed += 1

    def run(self, max_events: Optional[int] = None) -> int:
        """Process events until the queue is empty (or ``max_events``).

        Returns the number of events processed by this call (including ops
        a core processed inline during a batched step).
        """
        start = self.processed
        heap = self._heap
        pop = self.pop
        while heap:
            if max_events is not None and self.processed - start >= max_events:
                break
            time, _, fn, arg = pop()
            fn(time, arg)
        return self.processed - start
