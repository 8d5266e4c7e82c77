"""Transaction records and access outcomes.

The memory system is synchronous: an access call computes the full latency
of the corresponding coherence transaction and applies all state changes
immediately.  These dataclasses describe the result handed back to the
requesting core and, optionally, a detailed record of the transaction for
tests and debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from ..memory.block import CoherenceState


class TransactionKind(Enum):
    """Coherence transaction types issued by L1 caches."""

    GETS = "GetS"
    GETM = "GetM"
    UPGRADE = "Upgrade"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class TransactionRecord:
    """Detailed description of one coherence transaction (for analysis)."""

    kind: TransactionKind
    requester: int
    block_address: int
    issue_time: int
    start_time: int
    completion_time: int
    l2_hit: bool = False
    forwarded_from_owner: Optional[int] = None
    invalidated_sharers: List[int] = field(default_factory=list)
    conflicts: List[int] = field(default_factory=list)
    deferred_cycles: int = 0

    @property
    def latency(self) -> int:
        return self.completion_time - self.issue_time


@dataclass
class ConflictResolution:
    """How a speculating core resolved an external conflicting request.

    ``extra_delay`` is the additional latency imposed on the requester
    beyond the normal invalidation/forward path: zero for the default
    abort-immediately policy, up to the CoV timeout when the victim defers
    the request while it tries to commit.
    """

    extra_delay: int = 0
    aborted: bool = False
    deferred: bool = False


@dataclass
class AccessOutcome:
    """Result of an L1 access as seen by the requesting core."""

    hit: bool
    completion_time: int
    state: CoherenceState
    #: extra cycles the requester spent waiting for its own forced
    #: speculation commit before a fill could evict a speculative block.
    forced_commit_delay: int = 0
    record: Optional[TransactionRecord] = None

    @property
    def miss(self) -> bool:
        return not self.hit
