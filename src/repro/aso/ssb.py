"""The Scalable Store Buffer (SSB).

The SSB holds every store of a speculative atomic sequence, in program
order, at per-store granularity.  Because it never forwards values to
loads (forwarding happens from the L1), it avoids the associative-search
scaling limit of a conventional FIFO store buffer and can therefore be
large (the paper quotes roughly 10 KB, i.e. hundreds of stores).

For the simulator the SSB behaves like a word-granularity FIFO store
buffer with a large capacity plus a commit-drain cost: committing a
sequence of ``n`` stores occupies the cache's external interface for
``n * drain_cycles_per_store`` cycles.
"""

from __future__ import annotations

from bisect import bisect_right

from ..config import StoreBufferConfig, StoreBufferKind
from ..cpu.store_buffer import FIFOStoreBuffer

#: Default SSB capacity in stores (roughly the paper's 10 KB SSB).
DEFAULT_SSB_ENTRIES = 256


class ScalableStoreBuffer(FIFOStoreBuffer):
    """A large per-store FIFO used by ASO."""

    def __init__(self, entries: int = DEFAULT_SSB_ENTRIES,
                 drain_cycles_per_store: int = 2) -> None:
        config = StoreBufferConfig(kind=StoreBufferKind.FIFO_WORD,
                                   entries=entries, entry_bytes=8)
        super().__init__(config)
        self.drain_cycles_per_store = drain_cycles_per_store
        self.commit_drains = 0
        self.committed_stores = 0

    def speculative_store_count(self, now: int) -> int:
        """Number of live speculative entries (the cost driver of commit)."""
        live = self._checkpoints[bisect_right(self.releases, now):]
        return len(live) - live.count(None)

    def commit_drain_latency(self, now: int) -> int:
        """Cycles needed to drain the current speculative stores to the L2."""
        count = self.speculative_store_count(now)
        self.commit_drains += 1
        self.committed_stores += count
        return count * self.drain_cycles_per_store
