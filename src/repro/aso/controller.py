"""The ASO consistency controller (ASOsc).

ASO speculates selectively under sequential consistency, exactly like
InvisiFence-Selective configured for SC, but with the design differences
described in the package docstring: a per-store SSB, a drain-to-L2 commit,
and periodic checkpoints that bound the work discarded by a violation.

The commit drain is modelled as overlapped with subsequent execution
(ASO supports multiple in-flight sequences precisely to hide this
latency); its cost shows up indirectly through the SSB occupancy it
maintains.  The periodic checkpoints are what give ASO its small
performance edge over single-checkpoint InvisiFence in Figure 11.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import ConsistencyModel
from ..consistency.base import ConsistencyController
from ..core.selective import InvisiFenceSelective
from ..errors import ConfigurationError
from .ssb import ScalableStoreBuffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.core import Core

#: maximum number of simultaneously live checkpoints (atomic sequences).
MAX_ASO_CHECKPOINTS = 16


class ASOController(InvisiFenceSelective):
    """Atomic Sequence Ordering with periodic checkpointing."""

    def __init__(self, core: "Core") -> None:
        super().__init__(core)
        if self.config.consistency is not ConsistencyModel.SC:
            raise ConfigurationError(
                "the ASO baseline is modelled for SC (ASOsc), as in the paper"
            )
        # Replace the coalescing buffer with the Scalable Store Buffer.
        self.sb = ScalableStoreBuffer(
            drain_cycles_per_store=self.spec_config.aso_drain_cycles_per_store
        )
        self._sb_coalescing = False
        self._ops_since_checkpoint = 0

    # ASO overrides _note_ops and _maybe_take_second_checkpoint, both of
    # which InvisiFenceSelective's kernel inlines, so it runs the layered
    # process_op on both engines.
    process_op_fast = ConsistencyController.process_op_fast

    # -- periodic checkpoints -------------------------------------------------

    def _note_ops(self, count: int) -> None:
        super()._note_ops(count)
        if not self.speculating:
            return
        self._ops_since_checkpoint += count
        if (self._ops_since_checkpoint >= self.spec_config.aso_checkpoint_interval
                and len(self._checkpoints) < MAX_ASO_CHECKPOINTS):
            self.begin_speculation(self.core.events.now)
            self._ops_since_checkpoint = 0

    def _maybe_take_second_checkpoint(self, now: int) -> None:
        # Periodic checkpointing replaces the two-checkpoint threshold rule.
        return

    def begin_speculation(self, now: int):
        checkpoint = super().begin_speculation(now)
        if len(self._checkpoints) == 1:
            self._ops_since_checkpoint = 0
        return checkpoint

    # -- commit: drain the SSB into the L2 ---------------------------------------

    def commit_all(self, now: int, cov: bool = False) -> None:
        if self.speculating:
            # The drain occupies the cache's external interface; it is
            # overlapped with execution, so it does not stall the core, but
            # it is recorded for analysis.
            self.sb.commit_drain_latency(now)
        super().commit_all(now, cov=cov)
