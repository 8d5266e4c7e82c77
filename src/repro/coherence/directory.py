"""Full-map directory state.

The directory records, for every cache block that has ever been requested,
the set of L1 caches holding the block in a shared state and the single L1
(if any) holding it in a writable (Exclusive/Modified) state.  A per-block
``busy_until`` timestamp serialises transactions to the same block, which is
the property the paper relies on ("these protocols serialize all writes to
the same address").

The directory is deliberately unbounded: the shared L2 tag array only
affects hit/miss *latency*, never correctness (see DESIGN.md section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Set

from ..errors import CoherenceError


@dataclass(slots=True)
class DirectoryEntry:
    """Coherence metadata for a single cache block."""

    address: int
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None
    #: directory occupancy: transactions to this block issued before this
    #: time are serialised behind the previous transaction.
    busy_until: int = 0

    @property
    def is_uncached(self) -> bool:
        return self.owner is None and not self.sharers

    @property
    def is_shared(self) -> bool:
        return self.owner is None and bool(self.sharers)

    @property
    def is_modified(self) -> bool:
        return self.owner is not None

    def holders(self) -> Set[int]:
        """All L1 caches that may hold a valid copy."""
        holders = set(self.sharers)
        if self.owner is not None:
            holders.add(self.owner)
        return holders

    def check(self) -> None:
        """Validate the single-writer / multiple-reader invariant."""
        if self.owner is not None and self.sharers:
            raise CoherenceError(
                f"block {self.address:#x} has owner {self.owner} and sharers "
                f"{sorted(self.sharers)} simultaneously"
            )


class Directory:
    """Mapping from block address to :class:`DirectoryEntry`."""

    def __init__(self, block_bytes: int) -> None:
        self._block_bytes = block_bytes
        #: block address -> entry for every block ever requested.  The
        #: memory system's transaction engine reads and fills it directly
        #: (as :meth:`entry` would); nothing ever removes an entry.
        self.entries: Dict[int, DirectoryEntry] = {}

    def entry(self, block_addr: int) -> DirectoryEntry:
        """Return (creating if needed) the entry for an aligned block address."""
        entry = self.entries.get(block_addr)
        if entry is None:
            entry = DirectoryEntry(address=block_addr)
            self.entries[block_addr] = entry
        return entry

    def peek(self, block_addr: int) -> Optional[DirectoryEntry]:
        """Return the entry if it exists, without creating it."""
        return self.entries.get(block_addr)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[DirectoryEntry]:
        return iter(self.entries.values())

    def check_invariants(self) -> None:
        """Validate all entries (used by tests and debug assertions)."""
        for entry in self.entries.values():
            entry.check()
