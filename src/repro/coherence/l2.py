"""Shared L2 cache tags.

The L2 is used purely as a latency filter: a directory transaction that
finds its data in the L2 pays the L2 hit latency, otherwise it additionally
pays the main-memory latency.  Fills from memory, L1 evictions, the
owner's data on a forward, and the clean writeback before a dirty block's
first speculative write all install blocks in the L2.  Because the
directory keeps coherence state independently, L2 evictions silently drop
blocks without recalling L1 copies (a documented simplification).

Nothing but a block's presence and its install order is ever read, so no
:class:`~repro.memory.cache.CacheArray` backs the L2.
"""

from __future__ import annotations

from typing import Dict

from ..config import CacheConfig


class L2Cache:
    """Per-set, insertion-ordered maps of the shared L2's block addresses.

    A lookup never reorders a set.  An install moves its block to the
    most-recent end; a new block in a full set evicts the least recently
    installed one.
    """

    def __init__(self, config: CacheConfig) -> None:
        self._block_shift = config.block_bytes.bit_length() - 1
        self._assoc = config.associativity
        self._num_sets = config.num_sets
        #: set number -> {block address: None}, least recently installed
        #: first; sets materialize on first install.
        self._sets: Dict[int, Dict[int, None]] = {}

    def contains(self, block_addr: int) -> bool:
        """Whether the L2 holds ``block_addr``."""
        ways = self._sets.get((block_addr >> self._block_shift) % self._num_sets)
        return ways is not None and block_addr in ways

    def install(self, block_addr: int) -> None:
        """Install a block as its set's most recently installed one."""
        index = (block_addr >> self._block_shift) % self._num_sets
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = {}
        elif block_addr in ways:
            del ways[block_addr]
        elif len(ways) >= self._assoc:
            del ways[next(iter(ways))]
        ways[block_addr] = None

    def __len__(self) -> int:
        return sum(len(ways) for ways in self._sets.values())
