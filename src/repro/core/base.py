"""Shared speculation machinery for InvisiFence and ASO controllers.

:class:`SpeculativeController` implements the mechanisms of Section 3 of
the paper, independent of the policy that decides *when* to speculate:

* **Speculation initiation** -- take a register checkpoint
  (:meth:`begin_speculation`).
* **Commit** -- once the store buffer is empty, flash-clear the
  speculatively-read/written bits, making the whole speculative sequence
  visible atomically (:meth:`commit_all`); constant time, no arbitration.
* **Abort** -- flash-invalidate speculatively written blocks, drop
  speculative store-buffer entries, restore the checkpoint, and charge the
  discarded work to violation cycles (:meth:`abort_to`).
* **Violation detection** -- the memory system calls
  :meth:`on_external_conflict` when an external request hits a
  speculatively accessed block; depending on the configured policy the
  controller aborts immediately or defers the request while it tries to
  commit (commit-on-violate, Section 3.2).
* **Forced commit** -- a fill that would evict a speculatively accessed
  block first commits the speculation (:meth:`forced_commit`).

Subclasses provide the speculation policy by implementing
:meth:`process_op` and may hook :meth:`_after_abort` and
:meth:`_commit_allowed`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TYPE_CHECKING

from ..consistency.base import ConsistencyController
from ..config import ViolationPolicy
from ..errors import SpeculationError
from .checkpoint import Checkpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.core import Core


class SpeculativeController(ConsistencyController):
    """Checkpoint/rollback speculation on top of the base controller."""

    def __init__(self, core: "Core") -> None:
        super().__init__(core)
        self.spec_config = self.config.speculation
        self._checkpoints: List[Checkpoint] = []
        self._ckpt_counter = 0
        #: bumped whenever a speculation episode ends; stale deferred events
        #: (aborts, commit checks) carry the epoch they were scheduled in
        #: and are ignored if it no longer matches.
        self._spec_epoch = 0
        #: latest commit-check time already scheduled (avoids duplicates).
        self._next_commit_check: Optional[int] = None
        #: the event queue; callbacks are scheduled as bound methods taking
        #: ``(now, arg)``, ``arg`` carrying the epoch they were scheduled in.
        self._events = core.events
        #: forward-progress guard used by continuous speculation: after an
        #: abort, further conflicting requests are deferred (commit-on-violate
        #: style) until this core manages to commit once.  Without this, two
        #: continuously speculating cores that keep writing each other's
        #: speculative blocks can abort each other forever, because neither
        #: can ever execute the contended access non-speculatively.
        self._defer_conflicts_until_commit = False
        #: set by subclasses that need the guard (continuous speculation).
        self._use_forward_progress_deferral = False
        #: start time of the current speculation episode (observability
        #: only; written when the first checkpoint of an episode is taken
        #: and read when the episode's closing span is recorded).
        self._obs_episode_start = 0

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------

    @property
    def speculating(self) -> bool:
        return bool(self._checkpoints)

    def active_checkpoint(self) -> Optional[Checkpoint]:
        return self._checkpoints[-1] if self._checkpoints else None

    def active_checkpoint_id(self) -> Optional[int]:
        ckpt = self.active_checkpoint()
        return ckpt.checkpoint_id if ckpt is not None else None

    @property
    def checkpoints_in_use(self) -> int:
        return len(self._checkpoints)

    def _l1(self):
        return self.mem.l1(self.core_id)

    # ------------------------------------------------------------------
    # Speculation lifecycle
    # ------------------------------------------------------------------

    def begin_speculation(self, now: int) -> Checkpoint:
        """Take a register checkpoint and enter (or deepen) speculation."""
        self._ckpt_counter += 1
        checkpoint = Checkpoint(
            checkpoint_id=(self.core_id << 24) | self._ckpt_counter,
            trace_index=self.core.trace_index,
            time=now,
            stats_snapshot=self.stats.snapshot(),
        )
        self._checkpoints.append(checkpoint)
        if len(self._checkpoints) == 1:
            self.stats.speculations += 1
            if self._obs is not None:
                self._obs_episode_start = now
        return checkpoint

    def commit_all(self, now: int, cov: bool = False) -> None:
        """Commit every in-flight speculation (constant-time flash clear)."""
        if not self._checkpoints:
            return
        first = self._checkpoints[0]
        self._l1().flash_clear_spec_bits()
        self.sb.mark_all_non_speculative(now)
        self.stats.commits += 1
        if cov:
            self.stats.cov_commits += 1
        self._credit_spec_cycles_on_commit(now, first)
        if self._obs is not None:
            self._obs.sim_span(
                self.core_id, "spec.episode", self._obs_episode_start, now,
                {"outcome": "cov-commit" if cov else "commit",
                 "checkpoints": len(self._checkpoints)})
        self._checkpoints.clear()
        self._defer_conflicts_until_commit = False
        self._end_episode()

    def commit_checkpoint(self, checkpoint: Checkpoint, now: int) -> None:
        """Commit a single (oldest) checkpoint, keeping younger ones alive."""
        if not self._checkpoints or self._checkpoints[0] is not checkpoint:
            raise SpeculationError("only the oldest checkpoint can commit")
        self._l1().flash_clear_spec_bits(checkpoint.checkpoint_id)
        self.sb.mark_all_non_speculative(now, checkpoint.checkpoint_id)
        self.stats.commits += 1
        self._credit_spec_cycles_on_commit(now, checkpoint)
        self._defer_conflicts_until_commit = False
        self._checkpoints.pop(0)
        if not self._checkpoints:
            if self._obs is not None:
                self._obs.sim_span(
                    self.core_id, "spec.episode",
                    self._obs_episode_start, now, {"outcome": "commit"})
            self._end_episode()

    def abort_to(self, checkpoint: Checkpoint, now: int, cov: bool = False,
                 cause: str = "conflict") -> None:
        """Abort ``checkpoint`` and every younger one, rolling the core back.

        ``cause`` labels the rollback for telemetry only (it never affects
        simulated behaviour): ``"external-write"`` / ``"external-read"``
        for conflict-triggered aborts, ``"cov-timeout"`` when a
        commit-on-violate deferral missed its deadline.
        """
        if checkpoint not in self._checkpoints:
            raise SpeculationError("cannot abort to an inactive checkpoint")
        index = self._checkpoints.index(checkpoint)
        discarded = self._checkpoints[index:]
        kept = self._checkpoints[:index]

        elapsed = max(0, now - checkpoint.time)
        self.stats.rollback_to(checkpoint.stats_snapshot, elapsed)
        self.stats.aborts += 1
        if cov:
            self.stats.cov_aborts += 1
        self.stats.spec_cycles += elapsed

        l1 = self._l1()
        if kept:
            for dead in discarded:
                l1.flash_invalidate_spec_written(dead.checkpoint_id)
                self.sb.flash_invalidate_speculative(now, dead.checkpoint_id)
        else:
            l1.flash_invalidate_spec_written()
            self.sb.flash_invalidate_speculative(now)

        if self._obs is not None:
            rolled_back = max(0, self.core.trace_index - checkpoint.trace_index)
            self._obs.count(f"spec.abort.{cause}")
            if kept:
                self._obs.sim_instant(
                    self.core_id, "spec.partial-abort", now,
                    {"cause": cause, "rolled_back": rolled_back})
            else:
                self._obs.sim_span(
                    self.core_id, "spec.episode",
                    self._obs_episode_start, now,
                    {"outcome": "abort", "cause": cause,
                     "rolled_back": rolled_back, "cov": cov})
        self._checkpoints = kept
        if not kept:
            self._end_episode()
        if self._use_forward_progress_deferral:
            self._defer_conflicts_until_commit = True
        self.core.rollback(checkpoint.trace_index, now)
        self._after_abort(now)

    def _end_episode(self) -> None:
        self._spec_epoch += 1
        self._next_commit_check = None

    def _credit_spec_cycles_on_commit(self, now: int, checkpoint: Checkpoint) -> None:
        """Account time spent speculating when a checkpoint commits."""
        end = checkpoint.close_time if checkpoint.close_time is not None else now
        self.stats.spec_cycles += max(0, end - checkpoint.time)

    # -- subclass hooks ---------------------------------------------------

    def _after_abort(self, now: int) -> None:
        """Hook invoked after an abort."""

    def _commit_allowed(self, now: int) -> bool:
        """May an opportunistic commit happen right now?"""
        return True

    # ------------------------------------------------------------------
    # Opportunistic commit checks
    # ------------------------------------------------------------------

    def _schedule_commit_check(self, time: int) -> None:
        if self._next_commit_check is not None and self._next_commit_check >= time:
            return
        self._next_commit_check = time
        self._events.schedule(time, self._commit_check, self._spec_epoch)

    def _commit_check(self, now: int, epoch: int) -> None:
        if epoch != self._spec_epoch or not self.speculating:
            return
        self._try_commit(now)

    def _try_commit(self, now: int) -> None:
        """Commit if the store buffer is empty, else re-arm the check."""
        if self.sb.is_empty(now) and self._commit_allowed(now):
            self.commit_all(now)
            return
        drain = self.sb.drain_time(now)
        if drain > now:
            self._schedule_commit_check(drain)

    def _commit_or_schedule(self, now: int) -> None:
        """Called after each speculative op: arm the opportunistic commit.

        The commit itself always happens through a scheduled event at the
        store buffer's drain time, never inline: ``now`` here is the
        *finish* time of the op being processed, which generally lies in
        the future relative to the global event clock.  Committing inline
        would clear the speculative bits before conflicting requests from
        other cores (which arrive earlier in simulated time) had a chance
        to observe them, silently shrinking the vulnerability window.
        """
        if not self.speculating:
            return
        self._schedule_commit_check(max(now, self.sb.drain_time(now)))

    # ------------------------------------------------------------------
    # Memory-system listener interface
    # ------------------------------------------------------------------

    def on_external_conflict(self, block_addr: int, is_write: bool,
                             arrival_time: int) -> int:
        """Resolve an external request that conflicts with our speculation.

        Returns the cycles the request is deferred: 0 for an abort.
        """
        if not self.speculating:
            return 0
        target = self._conflict_checkpoint(block_addr)
        if target is None:
            return 0

        if (self.spec_config.violation_policy is ViolationPolicy.COMMIT_ON_VIOLATE
                or self._defer_conflicts_until_commit):
            return self._resolve_commit_on_violate(target, arrival_time)

        cause = "external-write" if is_write else "external-read"
        self._events.schedule(
            arrival_time, self._deferred_abort,
            (self._spec_epoch, target.checkpoint_id, False, cause))
        return 0

    def _resolve_commit_on_violate(self, target: Checkpoint,
                                   arrival_time: int) -> int:
        """Defer the request while we try to commit (CoV, Section 3.2).

        Returns the deferral: until the store buffer drains, or until the
        CoV timeout when the drain would take longer.
        """
        ready = max(arrival_time, self.sb.drain_time(arrival_time))
        deadline = arrival_time + self.spec_config.cov_timeout
        epoch = self._spec_epoch
        if ready <= deadline:
            self._events.schedule(ready, self._cov_commit, (epoch, deadline))
            return ready - arrival_time
        self._events.schedule(
            deadline, self._deferred_abort,
            (epoch, target.checkpoint_id, True, "cov-timeout"))
        return deadline - arrival_time

    def _conflict_checkpoint(self, block_addr: int) -> Optional[Checkpoint]:
        """Pick the checkpoint that must roll back for a conflict on a block.

        The speculative bits record which checkpoint first touched the
        block; rollback must restore the state *before* that access, so the
        oldest matching checkpoint is chosen.  If the bits are no longer
        available (the block was already invalidated) the oldest in-flight
        checkpoint is chosen conservatively.
        """
        if not self._checkpoints:
            return None
        block = self._l1().lookup(block_addr)
        ids = block.speculation_ids() if block is not None else set()
        if ids:
            for checkpoint in self._checkpoints:
                if checkpoint.checkpoint_id in ids:
                    return checkpoint
        return self._checkpoints[0]

    def _deferred_abort(self, now: int,
                        arg: Tuple[int, int, bool, str]) -> None:
        """Abort to a checkpoint; ``arg`` is ``(epoch, checkpoint_id, cov, cause)``."""
        epoch, checkpoint_id, cov, cause = arg
        if epoch != self._spec_epoch or not self.speculating:
            return
        target = next((c for c in self._checkpoints
                       if c.checkpoint_id == checkpoint_id), None)
        if target is None:
            target = self._checkpoints[0]
        self.abort_to(target, now, cov=cov, cause=cause)

    def _cov_commit(self, now: int, arg: Tuple[int, int]) -> None:
        """Try to complete a commit-on-violate deferral; ``arg`` is ``(epoch, deadline)``."""
        epoch, deadline = arg
        if epoch != self._spec_epoch or not self.speculating:
            return
        if self.sb.is_empty(now):
            self.commit_all(now, cov=True)
            return
        drain = self.sb.drain_time(now)
        if drain <= deadline:
            self._events.schedule(drain, self._cov_commit, arg)
        else:
            oldest = self._checkpoints[0].checkpoint_id
            self._events.schedule(
                deadline, self._deferred_abort,
                (epoch, oldest, True, "cov-timeout"))

    def on_measurement_reset(self) -> None:
        """Refresh live checkpoint snapshots after the warmup counters reset.

        Without this, a rollback to a checkpoint taken during warmup would
        restore pre-reset (already discarded) counter values.
        """
        for checkpoint in self._checkpoints:
            checkpoint.stats_snapshot = self.stats.snapshot()

    def forced_commit(self, now: int) -> int:
        """Commit so a speculatively accessed block may be evicted."""
        if not self.speculating:
            return now
        done = max(now, self.sb.drain_time(now))
        self.stats.forced_commits += 1
        if self._obs is not None:
            self._obs.count("spec.forced_commits")
        self.commit_all(done)
        return done

    # ------------------------------------------------------------------
    # Trace end
    # ------------------------------------------------------------------

    def at_trace_end(self, now: int) -> Tuple[str, int]:
        """Wait for the store buffer to drain, then commit what is left."""
        status = super().at_trace_end(now)
        if status[0] == "done":
            if self.speculating:
                self.commit_all(now)
            # Defensive cleanup: an operation in flight during a forced
            # commit may have tagged its block with the just-committed
            # checkpoint id; those bits belong to committed work.
            self._l1().flash_clear_spec_bits()
        return status
