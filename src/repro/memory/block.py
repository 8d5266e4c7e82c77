"""Cache block state.

Each L1 block carries an invalidation-protocol coherence state (a MESI
subset) plus the two bits InvisiFence adds to every L1 tag: the
speculatively-read and speculatively-written bits (Section 3.1).  The bits
are tagged with the identifier of the checkpoint (chunk) that set them so
that configurations with two in-flight checkpoints can attribute conflicts
and commits to the correct speculation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional


class CoherenceState(Enum):
    """Per-block coherence state as seen by one L1 cache."""

    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"

    @property
    def is_valid(self) -> bool:
        return self is not CoherenceState.INVALID

    @property
    def is_writable(self) -> bool:
        return self in (CoherenceState.EXCLUSIVE, CoherenceState.MODIFIED)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class CacheBlock:
    """One L1 cache block: tag state plus InvisiFence speculative bits."""

    address: int
    state: CoherenceState = CoherenceState.INVALID
    dirty: bool = False
    #: last-access timestamp used for LRU replacement.
    last_use: int = 0
    #: speculatively-read bit; ``None`` when clear, else the id of the
    #: checkpoint whose load set it first.
    spec_read: Optional[int] = None
    #: speculatively-written bit; ``None`` when clear, else the id of the
    #: checkpoint whose store set it first.
    spec_written: Optional[int] = None
    #: the owning cache's speculative-block registry (address -> block).
    #: Marking a bit records the block there so the flash circuits visit
    #: only speculatively touched blocks instead of scanning the cache.
    spec_registry: Optional[Dict[int, "CacheBlock"]] = \
        field(default=None, compare=False, repr=False)

    # -- speculative-bit queries -----------------------------------------

    @property
    def speculative(self) -> bool:
        """True when either speculative bit is set."""
        return self.spec_read is not None or self.spec_written is not None

    def speculation_ids(self) -> set:
        """Identifiers of all checkpoints that touched this block."""
        ids = set()
        if self.spec_read is not None:
            ids.add(self.spec_read)
        if self.spec_written is not None:
            ids.add(self.spec_written)
        return ids

    # -- speculative-bit updates -----------------------------------------

    def mark_spec_read(self, checkpoint_id: int) -> None:
        if self.spec_read is None:
            self.spec_read = checkpoint_id
            if self.spec_registry is not None:
                self.spec_registry[self.address] = self

    def mark_spec_written(self, checkpoint_id: int) -> None:
        if self.spec_written is None:
            self.spec_written = checkpoint_id
            if self.spec_registry is not None:
                self.spec_registry[self.address] = self

    def clear_spec_bits(self) -> None:
        """Flash-clear both speculative bits (commit path)."""
        self.spec_read = None
        self.spec_written = None

    def clear_spec_bits_for(self, checkpoint_id: int) -> None:
        """Clear only the bits owned by ``checkpoint_id`` (chunk commit)."""
        if self.spec_read == checkpoint_id:
            self.spec_read = None
        if self.spec_written == checkpoint_id:
            self.spec_written = None

    def invalidate(self) -> None:
        """Drop the block entirely (external invalidation or abort)."""
        self.state = CoherenceState.INVALID
        self.dirty = False
        self.clear_spec_bits()
