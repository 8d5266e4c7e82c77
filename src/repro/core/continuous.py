"""INVISIFENCE-CONTINUOUS (Section 4.2).

Every operation executes inside a speculative chunk, which subsumes the
in-window mechanisms for detecting consistency violations (loads mark the
speculatively-read bits as soon as they access the cache, and every load is
part of some chunk).  To avoid overly frequent checkpointing a chunk must
reach a minimum size before it may close; once closed it commits as soon as
all of its stores have completed.  Two checkpoints are supported so that a
closed chunk's commit (waiting on store misses) overlaps with execution of
the next chunk.

A violation against a block touched by the *older* (closed) chunk rolls
both chunks back; a violation against a block touched only by the active
chunk rolls back just the active chunk.  Under the commit-on-violate
policy the conflicting request is instead deferred while the processor
tries to drain its store buffer and commit everything.

:meth:`InvisiFenceContinuous.process_op` is the layered specification;
:meth:`InvisiFenceContinuous.process_op_fast` is the fast engine's flat
kernel of the same policy.
"""

from __future__ import annotations

from typing import Optional, Tuple, TYPE_CHECKING

from ..consistency.base import RETIRE_CYCLES
from ..errors import ConfigurationError
from ..trace.ops import MemOp, OpKind
from .base import SpeculativeController
from .checkpoint import Checkpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.core import Core


class InvisiFenceContinuous(SpeculativeController):
    """Speculate continuously in chunks of a minimum size."""

    def __init__(self, core: "Core") -> None:
        super().__init__(core)
        if self.spec_config.num_checkpoints < 2:
            raise ConfigurationError(
                "InvisiFence-Continuous requires two checkpoints to pipeline "
                "chunk commit with execution"
            )
        # Continuous speculation can never fall back to non-speculative
        # execution, so forward progress after an abort is guaranteed by
        # deferring further conflicting requests until one commit succeeds.
        self._use_forward_progress_deferral = True
        self._min_chunk_size = self.spec_config.min_chunk_size

    # ------------------------------------------------------------------
    # Chunk helpers
    # ------------------------------------------------------------------

    def _pending_chunk(self) -> Optional[Checkpoint]:
        """The closed chunk waiting for its stores to complete, if any."""
        if self._checkpoints and self._checkpoints[0].closed:
            return self._checkpoints[0]
        return None

    def _active_chunk(self, now: int) -> Checkpoint:
        """The chunk accepting new operations (opened lazily)."""
        if self._checkpoints and not self._checkpoints[-1].closed:
            return self._checkpoints[-1]
        return self.begin_speculation(now)

    def _maybe_close_chunk(self, now: int) -> None:
        """Close the active chunk once it reaches the minimum size.

        Closing requires a free checkpoint: with only two checkpoints the
        active chunk keeps growing while an older chunk is still waiting to
        commit.
        """
        active = self._checkpoints[-1] if self._checkpoints else None
        if active is None or active.closed:
            return
        if active.ops < self.spec_config.min_chunk_size:
            return
        if self._pending_chunk() is not None:
            return
        active.close_time = now
        ready = max(now, self.sb.drain_time_for_checkpoint(active.checkpoint_id, now))
        self._events.schedule(ready, self._chunk_commit_check,
                              (self._spec_epoch, active.checkpoint_id))

    def _chunk_commit_check(self, now: int, arg: Tuple[int, int]) -> None:
        """Commit the closed chunk once drained; ``arg`` is ``(epoch, chunk_id)``."""
        epoch, chunk_id = arg
        if epoch != self._spec_epoch:
            return
        pending = self._pending_chunk()
        if pending is None or pending.checkpoint_id != chunk_id:
            return
        ready = self.sb.drain_time_for_checkpoint(chunk_id, now)
        if ready > now:
            self._events.schedule(ready, self._chunk_commit_check, arg)
            return
        self.commit_checkpoint(pending, now)
        # The active chunk may itself have been waiting for a free checkpoint.
        self._maybe_close_chunk(now)

    def _commit_allowed(self, now: int) -> bool:
        """Whole-speculation commits only happen for CoV or at trace end."""
        return False

    # ------------------------------------------------------------------
    # Op processing
    # ------------------------------------------------------------------

    def process_op(self, op: MemOp, now: int) -> int:
        chunk = self._active_chunk(now)
        checkpoint_id = chunk.checkpoint_id

        if op.kind is OpKind.COMPUTE:
            finish = self._do_compute(op, now)
            chunk.note_ops(op.cycles)
        elif op.kind is OpKind.LOAD:
            finish = self._do_load(op, now, spec_checkpoint=checkpoint_id)
            chunk.note_ops(1)
        elif op.kind is OpKind.STORE:
            finish = self._do_store(op, now, spec_checkpoint=checkpoint_id)
            chunk.note_ops(1)
        elif op.kind is OpKind.ATOMIC:
            finish = self._do_atomic_speculative(op, now, checkpoint_id)
            chunk.note_ops(1)
        elif op.kind is OpKind.FENCE:
            finish = self._do_fence_free(op, now)
            chunk.note_ops(1)
        else:  # pragma: no cover - defensive
            raise ConfigurationError(f"unhandled operation kind {op.kind}")

        self._maybe_close_chunk(finish)
        return finish

    def process_op_fast(self, op: MemOp, now: int) -> int:
        """:meth:`process_op` as one flat kernel (the fast engine's entry).

        Resolves L1 load and store hits through one hit probe and keeps
        the chunk's op count and the size test of :meth:`_maybe_close_chunk`
        in this frame; a store the probe declined goes to
        :meth:`_store_miss`, and opening and closing chunks, other misses,
        stalls, atomics and fences go to the helpers :meth:`process_op`
        uses.
        """
        checkpoints = self._checkpoints
        if checkpoints and checkpoints[-1].close_time is None:
            chunk = checkpoints[-1]
        else:
            chunk = self.begin_speculation(now)
        spec = chunk.checkpoint_id
        kind = op.kind
        stats = self.stats
        if kind is OpKind.LOAD:
            stats.loads += 1
            completion = self._load_hit_time(self.core_id, op.address, now,
                                             spec)
            if completion is None:
                finish = self._load_miss(op, now, spec)
            else:
                finish = max(completion, now + RETIRE_CYCLES)
                stats.busy += RETIRE_CYCLES
                stats.other += finish - now - RETIRE_CYCLES
            chunk.ops += 1
        elif kind is OpKind.STORE:
            stats.stores += 1
            sb = self.sb
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
            chunk.ops += 1
        elif kind is OpKind.COMPUTE:
            stats.busy += op.cycles
            finish = now + op.cycles
            chunk.ops += op.cycles
        elif kind is OpKind.ATOMIC:
            finish = self._do_atomic_speculative(op, now, spec)
            chunk.ops += 1
        else:
            finish = self._do_fence_free(op, now)
            chunk.ops += 1
        # The chunk may close once it is big enough and no older chunk is
        # still waiting to commit (the remaining tests of _maybe_close_chunk;
        # a forced commit during the op leaves no chunk at all).
        if chunk.ops >= self._min_chunk_size and checkpoints \
                and checkpoints[0].close_time is None:
            self._maybe_close_chunk(finish)
        return finish

    # ------------------------------------------------------------------
    # Trace end
    # ------------------------------------------------------------------

    def at_trace_end(self, now: int):
        drain = self.sb.drain_time(now)
        if drain > now:
            self.stats.add_cycles("sb_drain", drain - now)
            return ("wait", drain)
        if self.speculating:
            # All stores have completed; commit everything.
            for checkpoint in list(self._checkpoints):
                if checkpoint.close_time is None:
                    checkpoint.close_time = now
            self.commit_all(now)
        # See SpeculativeController.at_trace_end: clear any bits tagged with
        # already-committed checkpoint ids.
        self._l1().flash_clear_spec_bits()
        return ("done", now)
