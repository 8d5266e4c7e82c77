"""Full-map directory state.

The directory records, for every cache block that has ever been requested,
a presence bit per L1 cache holding the block in a shared state and the
single L1 (if any) holding it in a writable (Exclusive/Modified) state.  A
per-block ``busy_until`` timestamp serialises transactions to the same
block, which is the property the paper relies on ("these protocols
serialize all writes to the same address").

The directory is deliberately unbounded: the shared L2 tag array only
affects hit/miss *latency*, never correctness (see DESIGN.md section 3).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..errors import CoherenceError


class DirectoryEntry:
    """Coherence metadata for a single cache block.

    A full-map entry: ``sharers`` is a presence vector, one bit per core
    (bit ``i`` set when core ``i``'s L1 may hold the block Shared), and
    ``owner`` is the one core that may hold it Exclusive or Modified.
    """

    __slots__ = ("address", "sharers", "owner", "busy_until")

    def __init__(self, address: int, sharers: int = 0,
                 owner: Optional[int] = None, busy_until: int = 0) -> None:
        self.address = address
        #: presence bits of the cores that may hold the block Shared.
        self.sharers = sharers
        self.owner = owner
        #: directory occupancy: transactions to this block issued before
        #: this time are serialised behind the previous transaction.
        self.busy_until = busy_until

    def sharer_ids(self) -> List[int]:
        """The ids of the cores whose presence bit is set, ascending."""
        sharers = self.sharers
        return [core for core in range(sharers.bit_length())
                if sharers >> core & 1]

    def check(self) -> None:
        """Validate the single-writer / multiple-reader invariant."""
        if self.owner is not None and self.sharers:
            raise CoherenceError(
                f"block {self.address:#x} has owner {self.owner} and sharers "
                f"{self.sharer_ids()} simultaneously"
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
