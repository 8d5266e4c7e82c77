"""Conventional (non-speculative) consistency implementations.

These are the baselines of Section 2.1 / Figure 2:

* **SC**: word-granularity FIFO store buffer; every load and every atomic
  stalls retirement until the store buffer drains; fences are unnecessary
  and retire for free.
* **TSO**: word-granularity FIFO store buffer; loads retire past
  outstanding stores, but atomics and full fences drain the store buffer.
* **RMO**: block-granularity coalescing store buffer; store hits retire
  directly into the L1; fences drain the store buffer; atomics stall only
  until they obtain write permission for their own block.

Capacity ("SB full") stalls arise naturally from the buffer sizes: the
FIFO buffers of SC/TSO fill during store bursts, while RMO's coalescing
buffer rarely fills because only outstanding misses occupy entries.

:meth:`ConventionalController.process_op` is the layered specification;
:meth:`ConventionalController.process_op_fast` is the fast engine's flat
kernel of the same rules.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING

from ..config import ConsistencyModel
from ..errors import ConfigurationError
from ..trace.ops import MemOp, OpKind
from .base import RETIRE_CYCLES, ConsistencyController
from .rules import AtomicRequirement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.core import Core


_LOAD = OpKind.LOAD
_STORE = OpKind.STORE
_COMPUTE = OpKind.COMPUTE


class ConventionalController(ConsistencyController):
    """Shared op dispatch for the three conventional implementations."""

    def process_op(self, op: MemOp, now: int) -> int:
        # Dispatch ordered by dynamic frequency (loads/stores dominate).
        kind = op.kind
        if kind is OpKind.LOAD:
            if self.rules.load_requires_drain and not self.sb.is_empty(now):
                now = self._drain_store_buffer(now)
            return self._do_load(op, now)
        if kind is OpKind.STORE:
            return self._do_store(op, now)
        if kind is OpKind.COMPUTE:
            return self._do_compute(op, now)
        if kind is OpKind.ATOMIC:
            return self._process_atomic(op, now)
        if kind is OpKind.FENCE:
            return self._process_fence(op, now)
        raise ConfigurationError(f"unhandled operation kind {op.kind}")  # pragma: no cover

    def process_op_fast(self, op: MemOp, now: int) -> int:
        """:meth:`process_op` as one flat kernel (the fast engine's entry).

        Loads and stores that hit the L1 are resolved here through one
        hit probe, and an SC load's wait for the store buffer to drain is
        charged here too; a store the probe declined goes to
        :meth:`_store_miss`, and other misses, a full store buffer,
        atomics and fences go to the same helpers :meth:`process_op`
        uses.
        """
        kind = op.kind
        stats = self.stats
        if kind is _LOAD:
            if self._load_drains:
                drain = self.sb.max_release
                if drain > now:
                    if self._obs is None:
                        # _drain_store_buffer's effect, without its frame.
                        stats.sb_drain += drain - now
                        now = drain
                    else:
                        now = self._drain_store_buffer(now)
            stats.loads += 1
            completion = self._load_hit_time(self.core_id, op.address, now)
            if completion is None:
                return self._load_miss(op, now)
            finish = max(completion, now + RETIRE_CYCLES)
            stats.busy += RETIRE_CYCLES
            stats.other += finish - now - RETIRE_CYCLES
            return finish
        if kind is _STORE:
            stats.stores += 1
            sb = self.sb
            if self._sb_coalescing:
                # RMO: a store that has write permission retires into the L1.
                if sb.max_release > now and sb.has_block(op.address, now):
                    return self._buffer_store(op, now)
                completion = self._store_hit_time(self.core_id, op.address, now)
                if completion is None:
                    return self._store_miss(op, now)
                if completion > now + self._hit_latency:
                    return self._retire_store_hit(op, now, completion, None)
                stats.busy += RETIRE_CYCLES
                return now + RETIRE_CYCLES
            # SC/TSO: every store takes a FIFO entry, hit or miss.  A
            # full buffer waits in _buffer_store; otherwise a hit retires
            # here with one probe and one insert (the capacity test is
            # FIFOStoreBuffer.is_full on its release list).
            releases = sb.releases
            capacity = sb.capacity
            if len(releases) >= capacity \
                    and len(releases) - bisect_right(releases, now) >= capacity:
                return self._buffer_store(op, now)
            completion = self._store_hit_time(self.core_id, op.address, now)
            if completion is None:
                return self._store_miss(op, now)
            sb.add_store(op.address, now, completion)
            stats.busy += RETIRE_CYCLES
            return now + RETIRE_CYCLES
        if kind is _COMPUTE:
            stats.busy += op.cycles
            return now + op.cycles
        if kind is OpKind.ATOMIC:
            return self._process_atomic(op, now)
        return self._process_fence(op, now)

    def _process_atomic(self, op: MemOp, now: int) -> int:
        if self.rules.atomic is AtomicRequirement.DRAIN_STORE_BUFFER \
                and not self.sb.is_empty(now):
            now = self._drain_store_buffer(now)
        # Under every conventional model the read-modify-write must obtain
        # write permission before it can retire (atomicity).
        return self._do_atomic_blocking(op, now)

    def _process_fence(self, op: MemOp, now: int) -> int:
        if self.rules.fence_requires_drain and not self.sb.is_empty(now):
            now = self._drain_store_buffer(now)
        return self._do_fence_free(op, now)


class ConventionalSC(ConventionalController):
    """Sequential consistency with a word-granularity FIFO store buffer."""


class ConventionalTSO(ConventionalController):
    """Total store order (SPARC TSO / x86-like) baseline."""


class ConventionalRMO(ConventionalController):
    """Relaxed memory order (SPARC RMO / Power / ARM-like) baseline."""


_CONTROLLERS = {
    ConsistencyModel.SC: ConventionalSC,
    ConsistencyModel.TSO: ConventionalTSO,
    ConsistencyModel.RMO: ConventionalRMO,
}


def conventional_controller(core: "Core") -> ConventionalController:
    """Instantiate the conventional controller for the core's model."""
    cls = _CONTROLLERS[core.config.consistency]
    return cls(core)
