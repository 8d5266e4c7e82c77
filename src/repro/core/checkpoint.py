"""Register checkpoints.

A checkpoint captures everything needed to roll a core back to the point
where speculation began: the trace index of the first speculative
operation, the time the checkpoint was taken, and a snapshot of the
breakdown counters so that discarded work can be re-classified as
violation cycles.  The hardware analogue is a shadow copy of the register
file and program counter (Section 3.1); in a trace-driven model the trace
index plays the role of the program counter and no register values exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(slots=True)
class Checkpoint:
    """State needed to restart execution at a speculation boundary."""

    checkpoint_id: int
    trace_index: int
    time: int
    stats_snapshot: Dict[str, int]
    #: operations (weighted by compute-bundle size) retired under this
    #: checkpoint; used for chunk sizing and second-checkpoint thresholds.
    ops: int = 0
    #: for continuous speculation: the time the chunk stopped accepting new
    #: operations (None while the chunk is still open).
    close_time: Optional[int] = None

    @property
    def closed(self) -> bool:
        return self.close_time is not None

    def note_ops(self, count: int) -> None:
        self.ops += count
