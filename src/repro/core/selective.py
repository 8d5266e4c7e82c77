"""INVISIFENCE-SELECTIVE (Section 4.1).

Speculation is initiated only when an instruction would otherwise stall at
retirement because of the target consistency model's ordering rules:

* **SC**: any load or store that is ready to retire while the store buffer
  is not empty (the coalescing buffer is unordered, so both load and store
  retirement constitute a reordering), plus atomics that would stall.
* **TSO**: stores and atomics retiring past a non-empty store buffer, and
  full fences.
* **RMO**: full fences retiring past a non-empty store buffer, and atomic
  operations whose block misses in the L1.

Speculation commits opportunistically, in constant time, as soon as the
store buffer is empty.  With ``num_checkpoints == 2`` a second checkpoint
is taken a fixed number of operations into a speculation, so that a
violation against a block first touched after the second checkpoint only
rolls back to that point (Section 6.4's two-checkpoint experiment).

:meth:`InvisiFenceSelective.process_op` is the layered specification;
:meth:`InvisiFenceSelective.process_op_fast` is the fast engine's flat
kernel of the same policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import ConsistencyModel
from ..consistency.base import RETIRE_CYCLES
from ..errors import ConfigurationError
from ..trace.ops import MemOp, OpKind
from .base import SpeculativeController

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.core import Core


_LOAD = OpKind.LOAD
_STORE = OpKind.STORE
_COMPUTE = OpKind.COMPUTE


class InvisiFenceSelective(SpeculativeController):
    """Speculate only on would-be ordering stalls."""

    def __init__(self, core: "Core") -> None:
        super().__init__(core)
        #: forward-progress guarantee: after an abort the next operation is
        #: executed non-speculatively (Section 3.2).
        self._force_nonspeculative_op = False
        # The load and store rows of _should_speculate, for the kernel.
        model = self.config.consistency
        self._speculate_loads = model is ConsistencyModel.SC
        self._speculate_stores = model is not ConsistencyModel.RMO
        # The _maybe_take_second_checkpoint rule, for the kernel.
        self._max_checkpoints = self.spec_config.num_checkpoints
        self._second_checkpoint_at = self.spec_config.second_checkpoint_threshold

    # ------------------------------------------------------------------
    # Speculation trigger policy
    # ------------------------------------------------------------------

    def _should_speculate(self, op: MemOp, now: int) -> bool:
        model = self.config.consistency
        sb_busy = not self.sb.is_empty(now)
        if op.kind is OpKind.ATOMIC:
            # An atomic stalls retirement if earlier stores are outstanding
            # (SC/TSO drain requirement) or if its own block misses.
            if model is ConsistencyModel.RMO:
                return not self.mem.is_write_hit(self.core_id, op.address)
            return sb_busy or not self.mem.is_write_hit(self.core_id, op.address)
        if op.kind is OpKind.FENCE:
            # Fences are meaningful under TSO and RMO; SC needs none.
            return model is not ConsistencyModel.SC and sb_busy
        if op.kind is OpKind.LOAD:
            return model is ConsistencyModel.SC and sb_busy
        if op.kind is OpKind.STORE:
            return model in (ConsistencyModel.SC, ConsistencyModel.TSO) and sb_busy
        return False

    # ------------------------------------------------------------------
    # Op processing
    # ------------------------------------------------------------------

    def process_op(self, op: MemOp, now: int) -> int:
        if op.kind is OpKind.COMPUTE:
            finish = self._do_compute(op, now)
            self._note_ops(op.cycles)
            return finish

        if not self.speculating:
            if not self._force_nonspeculative_op and self._should_speculate(op, now):
                self.begin_speculation(now)
            else:
                self._force_nonspeculative_op = False
                return self._process_conventional(op, now)

        finish = self._process_speculative(op, now)
        self._note_ops(1)
        self._maybe_take_second_checkpoint(finish)
        self._commit_or_schedule(finish)
        return finish

    def process_op_fast(self, op: MemOp, now: int) -> int:
        """:meth:`process_op` as one flat kernel (the fast engine's entry).

        Decides whether to speculate, resolves L1 load and store hits
        through one hit probe, and keeps the checkpoint's op count, the
        second-checkpoint rule and the opportunistic commit check in this
        frame; a store the probe declined goes to :meth:`_store_miss`, and
        other misses, stalls, atomics, fences and speculation start go to
        the helpers :meth:`process_op` uses.
        """
        kind = op.kind
        stats = self.stats
        checkpoints = self._checkpoints
        if kind is _COMPUTE:
            stats.busy += op.cycles
            if checkpoints:
                checkpoints[-1].ops += op.cycles
            return now + op.cycles
        sb = self.sb
        if checkpoints:
            spec = checkpoints[-1].checkpoint_id
        else:
            if self._force_nonspeculative_op:
                speculate = False
            elif kind is _LOAD:
                speculate = self._speculate_loads and sb.max_release > now
            elif kind is _STORE:
                speculate = self._speculate_stores and sb.max_release > now
            else:
                speculate = self._should_speculate(op, now)
            if speculate:
                spec = self.begin_speculation(now).checkpoint_id
            else:
                self._force_nonspeculative_op = False
                if kind is not _LOAD and kind is not _STORE:
                    return self._process_conventional(op, now)
                spec = None

        if kind is _LOAD:
            if spec is None and self._load_drains and sb.max_release > now:
                now = self._drain_store_buffer(now)
            stats.loads += 1
            completion = self._load_hit_time(self.core_id, op.address, now,
                                             spec)
            if completion is None:
                finish = self._load_miss(op, now, spec)
            else:
                finish = max(completion, now + RETIRE_CYCLES)
                stats.busy += RETIRE_CYCLES
                stats.other += finish - now - RETIRE_CYCLES
        elif kind is _STORE:
            stats.stores += 1
            if sb.max_release > now and sb.has_block(op.address, now):
                finish = self._buffer_store(op, now, spec)
            else:
                completion = self._store_hit_time(self.core_id, op.address,
                                                  now, spec)
                if completion is None:
                    finish = self._store_miss(op, now, spec)
                elif completion > now + self._hit_latency:
                    finish = self._retire_store_hit(op, now, completion, spec)
                else:
                    stats.busy += RETIRE_CYCLES
                    finish = now + RETIRE_CYCLES
        elif kind is OpKind.ATOMIC:
            finish = self._do_atomic_speculative(op, now, spec)
        else:
            finish = self._do_fence_free(op, now)
        if spec is None or not checkpoints:
            # Not speculating, or a forced commit during the op ended it.
            return finish

        active = checkpoints[-1]
        active.ops += 1
        if len(checkpoints) < self._max_checkpoints \
                and active.ops >= self._second_checkpoint_at:
            self.begin_speculation(finish)
        # Arm the opportunistic commit check (see _commit_or_schedule).
        drained = sb.max_release if sb.max_release > finish else finish
        armed = self._next_commit_check
        if armed is None or armed < drained:
            self._next_commit_check = drained
            self._events.schedule(drained, self._commit_check,
                                  self._spec_epoch)
        return finish

    # -- conventional path (no ordering stall possible by construction) ----

    def _process_conventional(self, op: MemOp, now: int) -> int:
        if op.kind is OpKind.LOAD:
            if self.rules.load_requires_drain and not self.sb.is_empty(now):
                now = self._drain_store_buffer(now)
            return self._do_load(op, now)
        if op.kind is OpKind.STORE:
            return self._do_store(op, now)
        if op.kind is OpKind.ATOMIC:
            return self._do_atomic_blocking(op, now)
        if op.kind is OpKind.FENCE:
            if self.rules.fence_requires_drain and not self.sb.is_empty(now):
                now = self._drain_store_buffer(now)
            return self._do_fence_free(op, now)
        raise ConfigurationError(f"unhandled operation kind {op.kind}")  # pragma: no cover

    # -- speculative path ----------------------------------------------------

    def _process_speculative(self, op: MemOp, now: int) -> int:
        checkpoint_id = self.active_checkpoint_id()
        assert checkpoint_id is not None
        if op.kind is OpKind.LOAD:
            return self._do_load(op, now, spec_checkpoint=checkpoint_id)
        if op.kind is OpKind.STORE:
            return self._do_store(op, now, spec_checkpoint=checkpoint_id)
        if op.kind is OpKind.ATOMIC:
            return self._do_atomic_speculative(op, now, checkpoint_id)
        if op.kind is OpKind.FENCE:
            return self._do_fence_free(op, now)
        raise ConfigurationError(f"unhandled operation kind {op.kind}")  # pragma: no cover

    # -- bookkeeping ------------------------------------------------------------

    def _note_ops(self, count: int) -> None:
        checkpoint = self.active_checkpoint()
        if checkpoint is not None:
            checkpoint.note_ops(count)

    def _maybe_take_second_checkpoint(self, now: int) -> None:
        if self.spec_config.num_checkpoints < 2:
            return
        if len(self._checkpoints) >= self.spec_config.num_checkpoints:
            return
        active = self.active_checkpoint()
        if active is not None and active.ops >= self.spec_config.second_checkpoint_threshold:
            self.begin_speculation(now)

    def _after_abort(self, now: int) -> None:
        self._force_nonspeculative_op = True
