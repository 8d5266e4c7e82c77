"""Base class for all consistency controllers.

A consistency controller is the piece of a core that decides how each
retiring operation interacts with the store buffer, the memory system, and
(for speculative implementations) the checkpoint/rollback machinery.  The
:class:`ConsistencyController` base class provides the op-processing
helpers shared by every implementation:

* classified cycle accounting (busy / other / sb_full / sb_drain),
* store-buffer capacity stalls,
* the load / store / atomic / fence / compute access paths,
* default (no-op) implementations of the memory-system listener hooks so
  that non-speculative controllers can be registered directly.

Every controller's :meth:`ConsistencyController.process_op` is the
layered specification of its ordering rules, built from these helpers;
the reference engine calls it for every op.  The fast engine calls
:meth:`ConsistencyController.process_op_fast` instead, which a subclass
may override with a flat kernel of the same rules: it dispatches once,
resolves L1 hits through one memory-system probe, and hands every rare
case (misses, stalls, speculation start and commit) back to the helpers
here.  The differential suite holds the two byte-identical.

Concrete subclasses:

* :class:`repro.consistency.conventional.ConventionalController` (SC, TSO,
  RMO baselines),
* :class:`repro.core.selective.InvisiFenceSelective`,
* :class:`repro.core.continuous.InvisiFenceContinuous`,
* :class:`repro.aso.controller.ASOController`.
"""

from __future__ import annotations

from typing import Optional, Tuple, TYPE_CHECKING

from ..config import SystemConfig
from ..cpu.store_buffer import CoalescingStoreBuffer, StoreBufferBase, make_store_buffer
from ..errors import SimulationError
from ..trace.ops import MemOp
from .rules import OrderingRules, rules_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.core import Core

#: Cycles charged as "busy" for retiring one operation.
RETIRE_CYCLES = 1


class ConsistencyController:
    """Common machinery for conventional and speculative controllers."""

    def __init__(self, core: "Core") -> None:
        self.core = core
        self.core_id = core.core_id
        self.config: SystemConfig = core.config
        self.mem = core.mem
        self.stats = core.stats
        assert self.config.store_buffer is not None
        self.sb: StoreBufferBase = make_store_buffer(self.config.store_buffer)
        self.rules: OrderingRules = rules_for(self.config.consistency)
        self._load_drains = self.rules.load_requires_drain
        #: cached ``isinstance`` check for the per-store dispatch; subclasses
        #: that replace ``self.sb`` (ASO) must refresh it.
        self._sb_coalescing = isinstance(self.sb, CoalescingStoreBuffer)
        #: cached fast-path flag of the memory system (immutable per run).
        self._mem_fast = self.mem.fast
        self._hit_latency = self.config.l1.hit_latency
        #: the memory system's hit probes, bound once for the op kernels.
        self._load_hit_time = self.mem.load_hit_time
        self._store_hit_time = self.mem.store_hit_time
        #: observability slot (``None`` when telemetry is off); captured
        #: from the core, where ``build_system`` places it before attach.
        self._obs = core.obs

    # ------------------------------------------------------------------
    # Interface used by the Core
    # ------------------------------------------------------------------

    def process_op(self, op: MemOp, now: int) -> int:
        """Process one retiring operation; return its finish time."""
        raise NotImplementedError

    def process_op_fast(self, op: MemOp, now: int) -> int:
        """The fast engine's per-op entry point.

        Defaults to :meth:`process_op`.  A subclass may override it with a
        flat kernel that leaves every counter, state bit, scheduled event
        and telemetry record exactly as :meth:`process_op` would; it may
        bypass the helpers below only where it repeats their effect.  The
        kernels resolve hits through the memory system's probes, which
        only the fast engine's memory system answers; only the fast
        engine's step (``Core._step_fast``) calls this.
        """
        return self.process_op(op, now)

    def at_trace_end(self, now: int) -> Tuple[str, int]:
        """Called when the trace is exhausted.

        Returns ``("done", finish_time)`` when the core may retire, or
        ``("wait", wake_time)`` when outstanding work (store buffer drain,
        speculation commit) must complete first.  The default behaviour
        waits for the store buffer to drain, charging the wait to
        ``sb_drain``.
        """
        drain = self.sb.drain_time(now)
        if drain > now:
            self.stats.add_cycles("sb_drain", drain - now)
            if self._obs is not None:
                self._obs.sim_span(self.core_id, "sb.drain", now, drain,
                                   {"at": "trace-end"})
            return ("wait", drain)
        return ("done", now)

    # ------------------------------------------------------------------
    # Memory-system listener hooks (overridden by speculative controllers)
    # ------------------------------------------------------------------

    def on_external_conflict(self, block_addr: int, is_write: bool,
                             arrival_time: int) -> int:
        """Non-speculative controllers never have speculative conflicts."""
        return 0

    def forced_commit(self, now: int) -> int:
        """Non-speculative controllers never pin blocks speculatively."""
        return now

    def on_measurement_reset(self) -> None:
        """Called when the core's warmup period ends and counters are zeroed."""

    # ------------------------------------------------------------------
    # Speculation status (queried by experiments; trivially false here)
    # ------------------------------------------------------------------

    @property
    def speculating(self) -> bool:
        return False

    def active_checkpoint_id(self) -> Optional[int]:
        return None

    # ------------------------------------------------------------------
    # Shared op-processing helpers
    # ------------------------------------------------------------------

    def _account(self, category: str, cycles: int) -> None:
        if cycles > 0:
            self.stats.add_cycles(category, cycles)

    def _do_compute(self, op: MemOp, now: int) -> int:
        self.stats.busy += op.cycles  # MemOp validates cycles >= 1
        return now + op.cycles

    def _wait_for_sb_slot(self, now: int) -> int:
        """Stall until the store buffer has a free entry (``SB full``)."""
        if not self.sb.is_full(now):
            return now
        free_at = self.sb.next_free_slot_time(now)
        if free_at <= now:
            raise SimulationError("store buffer reported full but no release time")
        self._account("sb_full", free_at - now)
        if self._obs is not None:
            self._obs.sim_span(self.core_id, "sb.full", now, free_at)
        return free_at

    def _drain_store_buffer(self, now: int, category: str = "sb_drain") -> int:
        """Stall until the store buffer is empty."""
        drain = self.sb.drain_time(now)
        if drain > now:
            self._account(category, drain - now)
            if self._obs is not None:
                self._obs.sim_span(self.core_id, "sb.drain", now, drain,
                                   {"at": category})
        return max(drain, now)

    def _do_load(self, op: MemOp, now: int,
                 spec_checkpoint: Optional[int] = None) -> int:
        """Perform a load; classify the miss latency as ``other``."""
        self.stats.loads += 1
        completion = self._load_hit_time(self.core_id, op.address, now,
                                         spec_checkpoint)
        if completion is None:
            return self._load_miss(op, now, spec_checkpoint)
        # Hit: no forced-commit delay.
        finish = max(completion, now + RETIRE_CYCLES)
        total = finish - now
        busy = min(total, RETIRE_CYCLES)
        stats = self.stats
        stats.busy += busy
        stats.other += total - busy
        return finish

    def _load_miss(self, op: MemOp, now: int,
                   spec_checkpoint: Optional[int] = None) -> int:
        """The rest of a load the hit probe declined (``loads`` is counted)."""
        completion, forced = self.mem.request(self.core_id, op.address, False,
                                              now, spec_checkpoint)
        finish = max(completion, now + RETIRE_CYCLES)
        # No counter below can go negative (which CoreStats.add_cycles
        # would reject): finish >= now + RETIRE_CYCLES, so the stall is
        # >= 0; the forced-commit delay from request() is >= 0 and is
        # capped at the stall, leaving a remainder >= 0 for ``other``.
        stall = finish - now - RETIRE_CYCLES
        if forced > stall:
            forced = stall
        stats = self.stats
        stats.busy += RETIRE_CYCLES
        stats.sb_drain += forced
        stats.other += stall - forced
        return finish

    def _do_store(self, op: MemOp, now: int,
                  spec_checkpoint: Optional[int] = None) -> int:
        """Perform a store through the store buffer.

        Stores never stall retirement except for store-buffer capacity.
        With a coalescing buffer, stores that already have write permission
        retire directly into the L1 (the paper's RMO/InvisiFence behaviour);
        with a FIFO buffer every store occupies an entry to preserve order.
        """
        self.stats.stores += 1

        if self._sb_coalescing:
            if self._mem_fast:
                if not self.sb.has_block(op.address, now):
                    completion = self._store_hit_time(
                        self.core_id, op.address, now, spec_checkpoint)
                    if completion is not None:
                        return self._retire_store_hit(op, now, completion,
                                                      spec_checkpoint)
            elif self.mem.is_write_hit(self.core_id, op.address) \
                    and not self.sb.has_block(op.address, now):
                completion, _ = self.mem.request(self.core_id, op.address,
                                                 True, now, spec_checkpoint)
                return self._retire_store_hit(op, now, completion,
                                              spec_checkpoint)
        return self._buffer_store(op, now, spec_checkpoint)

    def _buffer_store(self, op: MemOp, now: int,
                      spec_checkpoint: Optional[int] = None) -> int:
        """Stall for a free entry, then perform the store and buffer it.

        On the layered path every FIFO store ends here, hit or miss; the
        conventional kernel sends only a FIFO store that finds the buffer
        full.  A coalescing buffer's store ends here when its block has a
        live entry, or on the layered path when it misses in the L1.  A
        miss goes on to :meth:`_store_miss`.
        """
        if self.sb.is_full(now):
            now = self._wait_for_sb_slot(now)
        completion = self._store_hit_time(self.core_id, op.address, now,
                                          spec_checkpoint)
        if completion is None:
            return self._store_miss(op, now, spec_checkpoint)
        self.sb.add_store(op.address, now, completion, spec_checkpoint)
        self.stats.busy += RETIRE_CYCLES
        return now + RETIRE_CYCLES

    def _store_miss(self, op: MemOp, now: int,
                    spec_checkpoint: Optional[int] = None) -> int:
        """Stall for a free entry, then perform and buffer a store miss.

        For a store whose hit probe has declined (``stores`` is counted).
        The op kernels call it straight after their own probe: only
        :meth:`_wait_for_sb_slot` runs between that probe and the request,
        and it moves time, not L1 state, so a second probe would decline
        too.
        """
        sb = self.sb
        if sb.is_full(now):
            now = self._wait_for_sb_slot(now)
        completion, forced = self.mem.request(self.core_id, op.address, True,
                                              now, spec_checkpoint)
        stats = self.stats
        if forced:
            # request() returns a forced-commit delay >= 0, so this is > 0.
            stats.sb_drain += forced
            now += forced
        sb.add_store(op.address, now, completion, spec_checkpoint)
        stats.busy += RETIRE_CYCLES
        return now + RETIRE_CYCLES

    def _retire_store_hit(self, op: MemOp, now: int, completion: int,
                          spec_checkpoint: Optional[int]) -> int:
        """Retire a store whose block already had write permission."""
        if completion <= now + self._hit_latency:
            self.stats.busy += RETIRE_CYCLES
            return now + RETIRE_CYCLES
        # A speculative store to a dirty block waits for the cleaning
        # writeback inside the store buffer.
        now = self._wait_for_sb_slot(now)
        self.sb.add_store(op.address, now, completion, spec_checkpoint)
        self.stats.busy += RETIRE_CYCLES
        return now + RETIRE_CYCLES

    def _do_atomic_blocking(self, op: MemOp, now: int,
                            category: str = "sb_drain") -> int:
        """Perform an atomic that stalls retirement until it completes.

        Used by all conventional implementations: the read-modify-write
        needs write permission before it may retire, and the wait is an
        ordering/atomicity stall.
        """
        self.stats.atomics += 1
        completion = self._store_hit_time(self.core_id, op.address, now)
        if completion is None:
            completion, _ = self.mem.request(self.core_id, op.address, True,
                                             now)
        finish = max(completion, now + 2 * RETIRE_CYCLES)
        total = finish - now
        busy = min(total, 2 * RETIRE_CYCLES)
        self._account("busy", busy)
        self._account(category, total - busy)
        return finish

    def _do_atomic_speculative(self, op: MemOp, now: int,
                               spec_checkpoint: int) -> int:
        """Perform an atomic inside a speculation: no retirement stall.

        Both halves of the read-modify-write stay within the same
        speculation, so atomicity is guaranteed by the all-or-nothing commit
        (Section 3.2).  A miss simply leaves a speculative entry in the
        store buffer.
        """
        self.stats.atomics += 1
        if self._mem_fast:
            if not self.sb.has_block(op.address, now):
                completion = self._store_hit_time(
                    self.core_id, op.address, now, spec_checkpoint)
                if completion is not None:
                    return self._retire_atomic_hit(op, now, completion,
                                                   spec_checkpoint)
        elif self.mem.is_write_hit(self.core_id, op.address) \
                and not self.sb.has_block(op.address, now):
            completion, _ = self.mem.request(self.core_id, op.address, True,
                                             now, spec_checkpoint)
            return self._retire_atomic_hit(op, now, completion,
                                           spec_checkpoint)
        now = self._wait_for_sb_slot(now)
        completion, forced = self.mem.request(self.core_id, op.address, True,
                                              now, spec_checkpoint)
        if forced:
            self._account("sb_drain", forced)
            now += forced
        self.sb.add_store(op.address, now, completion, spec_checkpoint)
        self._account("busy", 2 * RETIRE_CYCLES)
        return now + 2 * RETIRE_CYCLES

    def _retire_atomic_hit(self, op: MemOp, now: int, completion: int,
                           spec_checkpoint: int) -> int:
        """Retire a speculative atomic whose block had write permission."""
        if completion <= now + self._hit_latency:
            self._account("busy", 2 * RETIRE_CYCLES)
            return now + 2 * RETIRE_CYCLES
        now = self._wait_for_sb_slot(now)
        self.sb.add_store(op.address, now, completion, spec_checkpoint)
        self._account("busy", 2 * RETIRE_CYCLES)
        return now + 2 * RETIRE_CYCLES

    def _do_fence_free(self, op: MemOp, now: int) -> int:
        """Retire a fence without any ordering stall."""
        self.stats.fences += 1
        self.stats.busy += RETIRE_CYCLES
        return now + RETIRE_CYCLES
