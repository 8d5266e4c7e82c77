"""The trace-driven core.

A :class:`Core` consumes one program-order trace.  It owns no ordering
logic itself: every operation is handed to the attached consistency
controller, which returns the time at which the operation finished
retiring.  The core then schedules itself to process the next operation at
that time.

Two step implementations exist and are proven equivalent by the
differential suite (``tests/test_differential.py``).  ``build_system``
picks one per engine through ``Core(batching=...)``:

* the **reference path** schedules one heap event per operation, exactly
  as the original engine did, hands each op to the controller's layered
  ``process_op`` and runs the warmup and phase-boundary check before
  every op;
* the **fast path** batches runs of operations in a single event: after
  finishing an op at time *t*, if the next pending heap event is
  *strictly later* than *t*, no other event in the whole system can fire
  before this core's next step would, so the next op is processed inline
  ("run-until-interesting").  The queue clock is advanced exactly as if
  the per-op event had been scheduled and popped, which keeps results
  bitwise identical.  Each op goes to the controller's flat kernel,
  ``process_op_fast``, and the warmup and phase-boundary check runs only
  at the precomputed trace index where it has work
  (:attr:`Core._pre_op_at`).

Both paths read the trace's own op list and charge each op's ``cycles``
as its instruction weight (1 for every op but a compute bundle).

The batch condition is exact rather than heuristic: cross-core
interactions (coherence transactions, conflict-triggered aborts, commit
checks) all travel through the event queue or happen synchronously inside
this core's own ``process_op`` call, so "no earlier-or-equal pending
event" really does mean "nothing can observe or perturb this core before
its next step".  Events scheduled *during* an inlined op (e.g. a deferred
abort on another core) are seen by the very next peek, ending the batch.

Speculative controllers can roll the core back: :meth:`Core.rollback`
resets the trace index to the checkpointed position, bumps the core's
generation counter (so any in-flight step fires as a no-op), and
reschedules processing.  Rollback targets are plain trace indices, so they
map back to exact positions in the trace regardless of how ops were
batched.  Controllers schedule their own callbacks (commit checks,
deferred aborts) on the event queue directly.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from ..config import SystemConfig
from ..errors import SimulationError
from ..trace.trace import Trace
from .stats import COUNTER_FIELDS, CoreStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..coherence.memory_system import MemorySystem
    from ..consistency.base import ConsistencyController
    from ..engine.events import EventQueue

#: Upper bound on ops processed inline by one step event.  Scheduling the
#: next step through the heap is observably identical to inlining it (the
#: batch condition guarantees no other event can fire in between), so the
#: cap changes nothing except returning control to ``EventQueue.run``
#: periodically -- which is what keeps the simulator's ``max_events``
#: runaway backstop effective under the fast path (e.g. against a
#: controller that answers ``("wait", now + k)`` at trace end forever).
_MAX_INLINE_BATCH = 4096

#: :attr:`Core._pre_op_at` when no warmup end or phase boundary is pending.
_NEVER = sys.maxsize


class Core:
    """One simulated processor core."""

    def __init__(self, core_id: int, trace: Trace, config: SystemConfig,
                 mem: "MemorySystem", events: "EventQueue",
                 warmup_ops: int = 0,
                 phase_bounds: Optional[Sequence[int]] = None,
                 batching: bool = True) -> None:
        self.core_id = core_id
        self.trace = trace
        self.config = config
        self.mem = mem
        self.events = events
        self.stats = CoreStats()
        self.controller: Optional["ConsistencyController"] = None
        #: observability slot: ``None`` (telemetry off) or an *enabled*
        #: recorder (see :mod:`repro.obs`).  Set by ``build_system`` before
        #: the controller is attached, so controllers can capture it.
        self.obs = None
        #: True for the batched fast path, False for the one-event-per-op
        #: reference path (kept for differential equivalence testing).
        self.batching = batching
        #: the step method every scheduled step calls, ``fn(now, generation)``.
        self._fire = self._step_fast if batching else self._step_reference
        #: the trace's own op list (shared, so ops appended later are seen).
        self._ops = trace.ops

        self._index = 0
        self._generation = 0
        self._finished = False
        self.finish_time: Optional[int] = None
        #: number of leading trace operations treated as cache/statistics
        #: warmup: when the core first retires past this index (while not
        #: speculating) every counter is reset.
        self.warmup_ops = max(0, min(warmup_ops, len(trace)))
        self._warmup_done = self.warmup_ops == 0
        #: cumulative phase end-indices into the trace (last == len(trace)).
        #: When set, the core snapshots its counters each time retirement
        #: first crosses a boundary, so per-phase stats can be recovered as
        #: snapshot deltas.  Rollbacks that re-enter an earlier phase discard
        #: the affected snapshots; they are re-taken on the re-crossing.
        self.phase_bounds: List[int] = list(phase_bounds or [])
        if self.phase_bounds:
            if sorted(set(self.phase_bounds)) != self.phase_bounds:
                raise SimulationError("phase bounds must be strictly increasing")
            if self.phase_bounds[0] <= 0 or self.phase_bounds[-1] != len(trace):
                raise SimulationError(
                    "phase bounds must be positive and end at the trace length"
                )
        self._inner_bounds = self.phase_bounds[:-1]
        self._phase_snaps: List[Optional[Dict[str, int]]] = \
            [None] * len(self._inner_bounds)
        self._next_bound = 0
        #: the first trace index at which :meth:`_pre_op` has work: the end
        #: of warmup or the next phase boundary (``_NEVER`` when neither is
        #: pending).  The fast step tests this one int instead of calling
        #: :meth:`_pre_op` before every op.
        self._pre_op_at = _NEVER
        self._plan_pre_op()

    # -- wiring --------------------------------------------------------------

    def attach_controller(self, controller: "ConsistencyController") -> None:
        self.controller = controller
        self.mem.register_listener(self.core_id, controller)

    def release(self) -> None:
        """Drop this core's references into its machine's reference cycles.

        The controller holds the core, and :attr:`_fire` is a bound method
        of the core kept on the core.  Once both are gone the core is freed
        by reference counting; it cannot step again.
        """
        self.controller = None
        self._fire = None

    # -- trace position --------------------------------------------------------

    @property
    def trace_index(self) -> int:
        return self._index

    @property
    def finished(self) -> bool:
        return self._finished

    # -- phase attribution -----------------------------------------------------

    def phase_stats(self) -> List[CoreStats]:
        """Per-phase counter deltas (empty without phase bounds).

        Only meaningful once the core has finished: the last phase is
        closed by the core's final counters, so end-of-trace work (store
        buffer drain, final speculation commit) is attributed to it.
        """
        if not self.phase_bounds:
            return []
        if not self._finished:
            raise SimulationError(
                f"phase stats requested before core {self.core_id} finished"
            )
        snaps = list(self._phase_snaps) + [self.stats.full_snapshot()]
        out: List[CoreStats] = []
        prev = {name: 0 for name in COUNTER_FIELDS}
        for snap in snaps:
            assert snap is not None  # all boundaries crossed once finished
            out.append(CoreStats.from_delta(prev, snap))
            prev = snap
        return out

    # -- scheduling --------------------------------------------------------------

    def start(self, at: int = 0) -> None:
        """Schedule the first processing step."""
        if self.controller is None:
            raise SimulationError(f"core {self.core_id} has no controller attached")
        self.events.schedule_step(at, self._fire, self._generation)

    def rollback(self, trace_index: int, now: int) -> None:
        """Reset the trace position after an abort and resume at ``now``."""
        if trace_index < 0 or trace_index > len(self.trace):
            raise SimulationError(
                f"rollback to invalid trace index {trace_index} on core {self.core_id}"
            )
        self.stats.replayed_ops += max(0, self._index - trace_index)
        while self._next_bound > 0 and trace_index < self._inner_bounds[self._next_bound - 1]:
            self._next_bound -= 1
            self._phase_snaps[self._next_bound] = None
        self._index = trace_index
        self._plan_pre_op()
        self._generation += 1
        self._finished = False
        self.finish_time = None
        self.events.schedule_step(now, self._fire, self._generation)

    # -- the per-op step -----------------------------------------------------------

    def _pre_op(self) -> None:
        """Warmup reset and phase-boundary snapshots for the op at ``_index``."""
        if not self._warmup_done and self._index >= self.warmup_ops:
            self.stats.reset_measurement()
            self.controller.on_measurement_reset()
            self._warmup_done = True
            # Boundaries crossed during warmup delimit phases whose measured
            # contribution is (by definition) zero.
            for i in range(self._next_bound):
                self._phase_snaps[i] = {name: 0 for name in COUNTER_FIELDS}
        while self._next_bound < len(self._inner_bounds) \
                and self._index >= self._inner_bounds[self._next_bound]:
            self._phase_snaps[self._next_bound] = self.stats.full_snapshot()
            self._next_bound += 1
        self._plan_pre_op()

    def _plan_pre_op(self) -> None:
        """Recompute :attr:`_pre_op_at` (after a pre-op or a rollback)."""
        at = _NEVER if self._warmup_done else self.warmup_ops
        if self._next_bound < len(self._inner_bounds):
            at = min(at, self._inner_bounds[self._next_bound])
        self._pre_op_at = at

    def _step_fast(self, now: int, generation: int) -> None:
        """Batched step: process ops inline until another event is due."""
        if generation != self._generation or self._finished:
            return
        controller = self.controller
        assert controller is not None
        process_op = controller.process_op_fast
        events = self.events
        heap = events._heap
        ops = self._ops
        trace_len = len(ops)
        stats = self.stats
        budget = _MAX_INLINE_BATCH
        # Only _pre_op and rollback move it, and a rollback never lands
        # inside a step.
        pre_op_at = self._pre_op_at
        while True:
            index = self._index
            if index >= pre_op_at:
                self._pre_op()
                pre_op_at = self._pre_op_at
            if index >= trace_len:
                wake = self._handle_trace_end(now)
                if wake is None:
                    return
                # The trace-end wait is itself batchable: if nothing else
                # fires before the wake time, continue inline.
                head = heap[0][0] if heap else None
                budget -= 1
                if budget > 0 and (head is None or head > wake):
                    events.note_inline(wake)
                    now = wake
                    continue
                events.schedule_step(wake, self._fire, self._generation)
                return
            op = ops[index]
            finish = process_op(op, now)
            if finish < now:
                raise SimulationError(
                    f"controller returned a finish time in the past on core {self.core_id}"
                )
            self._index = index + 1
            stats.instructions += op.cycles
            head = heap[0][0] if heap else None
            budget -= 1
            if budget > 0 and (head is None or head > finish):
                # No event anywhere in the system fires before this core's
                # next step would: process the next op inline, keeping the
                # clock in lockstep with the reference path.
                events.note_inline(finish)
                now = finish
                continue
            events.schedule_step(finish, self._fire, self._generation)
            return

    def _step_reference(self, now: int, generation: int) -> None:
        """Reference step: one heap event per operation (original engine)."""
        if generation != self._generation or self._finished:
            return
        assert self.controller is not None
        self._pre_op()
        if self._index >= len(self._ops):
            wake = self._handle_trace_end(now)
            if wake is not None:
                self.events.schedule_step(wake, self._fire, self._generation)
            return
        op = self._ops[self._index]
        finish = self.controller.process_op(op, now)
        if finish < now:
            raise SimulationError(
                f"controller returned a finish time in the past on core {self.core_id}"
            )
        self.stats.instructions += op.cycles
        self._index += 1
        self.events.schedule_step(finish, self._fire, self._generation)

    def _handle_trace_end(self, now: int) -> Optional[int]:
        """Finish the core or return the wake time to re-check at."""
        assert self.controller is not None
        status, time = self.controller.at_trace_end(now)
        if status == "done":
            self._finished = True
            self.finish_time = max(time, now)
            self.stats.finish_time = self.finish_time
            return None
        if status == "wait":
            if time <= now:
                raise SimulationError(
                    "controller asked to wait without advancing time at trace end"
                )
            return time
        raise SimulationError(f"unknown trace-end status {status!r}")  # pragma: no cover
