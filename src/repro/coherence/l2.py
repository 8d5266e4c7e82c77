"""Shared L2 cache tags, optionally split into address-interleaved banks.

The L2 is used purely as a latency filter: a directory transaction that
finds its data in the L2 pays the L2 hit latency, otherwise it additionally
pays the main-memory latency.  Dirty and clean writebacks from L1s install
blocks in the L2, as do fills from memory.  Because the directory keeps
coherence state independently, L2 evictions silently drop blocks without
recalling L1 copies (a documented simplification).

With ``banks > 1`` the tag array is divided into equal banks selected by
block-address interleaving (the same interleave the directory uses for
home nodes).  One bank reproduces the paper's monolithic shared L2
exactly, and so does any other bank count: a banked L2 holds every block
in the set the monolithic one would (DESIGN section 4).

Nothing but a block's presence, its dirty flag and its install order is
ever read, so no :class:`~repro.memory.cache.CacheArray` backs the L2.
"""

from __future__ import annotations

from typing import Dict

from ..config import CacheConfig


class L2Cache:
    """Per-set recency-ordered tag maps for the shared L2.

    A probe is one lookup and never reorders a set.  An install moves its
    block to the most-recent end and sets its dirty flag to the
    install's; a new block in a full set evicts the least recently
    installed one, counting a writeback if that block was dirty.
    """

    def __init__(self, config: CacheConfig, banks: int = 1) -> None:
        self._config = config
        self._banks = banks
        self._block_bytes = config.block_bytes
        self._block_shift = config.block_bytes.bit_length() - 1
        self._assoc = config.associativity
        #: Block ``n`` lands in bank ``n % banks`` and, within it, in set
        #: ``(n // banks) % (num_sets // banks)``: the bank stride is
        #: divided out, so every bank reaches all of its sets (DESIGN
        #: section 4).  ``n % num_sets`` fixes that pair and is fixed by
        #: it, so it numbers the set, banked or not.
        self._num_sets = config.num_sets
        #: set number -> {block address -> dirty}, least recently installed
        #: first; sets materialize on first install.
        self._sets: Dict[int, Dict[int, bool]] = {}
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    @property
    def config(self) -> CacheConfig:
        return self._config

    @property
    def num_banks(self) -> int:
        return self._banks

    def bank_of(self, block_addr: int) -> int:
        """Bank index for an aligned block address (address-interleaved)."""
        return (block_addr // self._block_bytes) % self._banks

    def probe(self, block_addr: int) -> bool:
        """Record and return whether ``block_addr`` hits in the L2."""
        ways = self._sets.get((block_addr >> self._block_shift) % self._num_sets)
        if ways is not None and block_addr in ways:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, block_addr: int) -> bool:
        ways = self._sets.get((block_addr >> self._block_shift) % self._num_sets)
        return ways is not None and block_addr in ways

    def install(self, block_addr: int, dirty: bool = False) -> None:
        """Install a block: a fill from memory or a clean L1 eviction.

        ``dirty`` marks data newer than memory's (:meth:`install_dirty`).
        """
        index = (block_addr >> self._block_shift) % self._num_sets
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = {}
        elif block_addr in ways:
            del ways[block_addr]
        elif len(ways) >= self._assoc:
            # The victim's data goes back to memory; no latency is charged
            # to the requester for this background operation.
            if ways.pop(next(iter(ways))):
                self.writebacks += 1
        ways[block_addr] = dirty

    def install_dirty(self, block_addr: int) -> None:
        """Install a block received via an L1 writeback (data is newer)."""
        self.install(block_addr, True)

    def __len__(self) -> int:
        return sum(len(ways) for ways in self._sets.values())
