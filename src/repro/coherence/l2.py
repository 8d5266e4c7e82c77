"""Shared L2 cache tag array, optionally split into address-interleaved banks.

The L2 is used purely as a latency filter: a directory transaction that
finds its data in the L2 pays the L2 hit latency, otherwise it additionally
pays the main-memory latency.  Dirty and clean writebacks from L1s install
blocks in the L2, as do fills from memory.  Because the directory keeps
coherence state independently, L2 evictions silently drop blocks without
recalling L1 copies (a documented simplification).

With ``banks > 1`` the tag array is divided into equal banks selected by
block-address interleaving (the same interleave the directory uses for
home nodes), so a hot address range's capacity conflicts stay local to a
bank.  One bank reproduces the paper's monolithic shared L2 exactly.
"""

from __future__ import annotations

import dataclasses
from typing import List

from ..config import CacheConfig
from ..memory.block import CoherenceState
from ..memory.cache import CacheArray


class L2Cache:
    """A thin wrapper over per-bank :class:`CacheArray` tags for the L2."""

    def __init__(self, config: CacheConfig, banks: int = 1) -> None:
        self._config = config
        self._banks = banks
        bank_config = config if banks == 1 else dataclasses.replace(
            config, size_bytes=config.size_bytes // banks)
        self._tags: List[CacheArray] = [CacheArray(bank_config)
                                        for _ in range(banks)]
        #: the only bank of a monolithic L2, whose bank-local address is
        #: the block address itself; ``None`` when banked.
        self._single = self._tags[0] if banks == 1 else None
        self._block_bytes = config.block_bytes
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

    def _bank(self, block_addr: int) -> CacheArray:
        if self._banks == 1:
            return self._tags[0]
        return self._tags[self.bank_of(block_addr)]

    def _slot(self, block_addr: int) -> int:
        """Bank-local address for a block (the bank stride divided out).

        Blocks land in bank ``blocknum % banks``; within a bank the set
        index must come from ``blocknum // banks``, otherwise every block
        a bank receives shares the same residues modulo ``banks`` and the
        bank can only ever reach ``1/banks`` of its own sets.  The mapping
        is bijective per bank, so tags cannot collide.
        """
        if self._banks == 1:
            return block_addr
        return (block_addr // self._block_bytes // self._banks) * self._block_bytes

    def probe(self, block_addr: int) -> bool:
        """Record and return whether ``block_addr`` hits in the L2."""
        if self.contains(block_addr):
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, block_addr: int) -> bool:
        tags = self._single
        if tags is None:
            tags, block_addr = self._bank(block_addr), self._slot(block_addr)
        block = tags.lines.get(block_addr)
        return block is not None and block.state is not CoherenceState.INVALID

    def install(self, block_addr: int) -> None:
        """Install a block (fill from memory or writeback from an L1)."""
        tags = self._single
        if tags is None:
            tags, block_addr = self._bank(block_addr), self._slot(block_addr)
        if tags.prepare_fill(block_addr).needs_writeback:
            # The victim's data goes back to memory; no latency is charged
            # to the requester for this background operation.
            self.writebacks += 1
        tags.install(block_addr, CoherenceState.EXCLUSIVE, dirty=False)

    def install_dirty(self, block_addr: int) -> None:
        """Install a block received via an L1 writeback (data is newer)."""
        tags = self._single
        if tags is None:
            tags, block_addr = self._bank(block_addr), self._slot(block_addr)
        if tags.prepare_fill(block_addr).needs_writeback:
            self.writebacks += 1
        tags.install(block_addr, CoherenceState.MODIFIED, dirty=True)

    def __len__(self) -> int:
        return sum(len(tags) for tags in self._tags)
