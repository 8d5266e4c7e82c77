"""Set-associative cache tag array with InvisiFence speculative-bit support.

The :class:`CacheArray` models the tag/state side of an L1 data cache.  The
data values themselves are never simulated (the simulator is trace-driven),
but all state needed for timing and correctness of the studied mechanisms is
kept: coherence state, dirtiness, LRU ordering, and the speculatively-read /
speculatively-written bits.

Two operations mirror the flash circuits of Figure 3:

* :meth:`CacheArray.flash_clear_spec_bits` -- clear every speculative bit
  (used on commit), optionally restricted to one checkpoint id.
* :meth:`CacheArray.flash_invalidate_spec_written` -- invalidate every block
  whose speculatively-written bit is set (used on abort), again optionally
  restricted to one checkpoint id.

A fill is one :meth:`CacheArray.install` call that picks its own victim.
Victim selection prefers non-speculative blocks so that a fill does not
force the eviction of a speculatively accessed block unless the whole set
is speculative; in that case nothing is installed and the caller must
force a commit and install again (Section 3.2: "forcing a commit before
evicting any speculatively-read or speculatively-written block").
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..config import CacheConfig
from ..errors import SimulationError
from .address import block_mask
from .block import CacheBlock, CoherenceState

_INVALID = CoherenceState.INVALID


class CacheArray:
    """A set-associative, LRU-replaced cache tag array."""

    def __init__(self, config: CacheConfig) -> None:
        self._config = config
        self._num_sets = config.num_sets
        self._assoc = config.associativity
        self._block_bytes = config.block_bytes
        self._block_mask = block_mask(self._block_bytes)
        self._block_shift = self._block_bytes.bit_length() - 1
        #: set-index -> {block address -> CacheBlock}; sets materialize on
        #: first install so construction stays O(1) in the number of sets.
        self._sets: Dict[int, Dict[int, CacheBlock]] = {}
        #: block address -> block for every way the sets hold (INVALID
        #: placeholders included), so a lookup is one dict probe.  The
        #: memory system's hit probes and transaction engine read an L1's
        #: directly; only this class mutates it, always together with
        #: ``_sets``.
        self.lines: Dict[int, CacheBlock] = {}
        #: blocks that have had a speculative bit set since the last flash
        #: (address -> block, possibly stale); lets the flash circuits run
        #: in O(speculative blocks) instead of O(cache size).  Blocks hold a
        #: reference to this dict, so it is mutated in place, never rebound.
        self._spec_marked: Dict[int, CacheBlock] = {}
        #: LRU clock: bumped on every touching access, whose block records
        #: the new value in ``last_use``.  The hit probes bump it directly.
        self.lru_clock = 0

    # -- geometry helpers -------------------------------------------------

    @property
    def config(self) -> CacheConfig:
        return self._config

    @property
    def block_bytes(self) -> int:
        return self._block_bytes

    # -- lookups ----------------------------------------------------------

    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheBlock]:
        """Return the valid block containing ``addr`` or ``None``."""
        block = self.lines.get(addr & self._block_mask)
        if block is None or block.state is _INVALID:
            return None
        if touch:
            self.lru_clock += 1
            block.last_use = self.lru_clock
        return block

    def contains(self, addr: int) -> bool:
        return self.lookup(addr, touch=False) is not None

    def is_writable(self, addr: int) -> bool:
        block = self.lookup(addr, touch=False)
        if block is None:
            return False
        state = block.state
        return state is CoherenceState.MODIFIED or state is CoherenceState.EXCLUSIVE

    def __len__(self) -> int:
        return sum(
            1 for s in self._sets.values() for b in s.values() if b.state.is_valid
        )

    def blocks(self) -> Iterator[CacheBlock]:
        """Iterate over all valid blocks (no LRU side effects)."""
        for s in self._sets.values():
            for block in s.values():
                if block.state.is_valid:
                    yield block

    def speculative_blocks(self) -> Iterator[CacheBlock]:
        """Iterate over valid blocks with at least one speculative bit set."""
        for block in self.blocks():
            if block.speculative:
                yield block

    # -- fills and evictions ----------------------------------------------

    def install(self, addr: int, state: CoherenceState, dirty: bool = False
                ) -> Tuple[Optional[CacheBlock], Optional[CacheBlock]]:
        """Install (or update) the block containing ``addr``.

        Returns ``(block, victim)``.  A present valid block takes the new
        state and dirty bit in place.  A new block takes a free way; in a
        full set, invalid placeholders are purged first, and only when
        none is left is the least-recently-used *non-speculative* block
        evicted and returned as ``victim`` (``None`` when nothing was
        evicted).  When every way holds speculative state nothing is
        installed and ``(None, None)`` is returned: the caller must commit
        the speculation first and install again.
        """
        if state is _INVALID:
            raise SimulationError("cannot install a block in the INVALID state")
        baddr = addr & self._block_mask
        lines = self.lines
        block = lines.get(baddr)
        victim = None
        if block is not None and block.state is not _INVALID:
            block.state = state
            block.dirty = dirty
        else:
            index = (baddr >> self._block_shift) % self._num_sets
            cache_set = self._sets.get(index)
            if cache_set is None:
                cache_set = self._sets[index] = {}
            elif block is not None:
                # Drop the stale invalid entry for this address.
                del cache_set[baddr]
                del lines[baddr]
            if len(cache_set) >= self._assoc:
                # Invalid placeholders are unobservable elsewhere (lookups,
                # iteration and len() skip them); purging one frees a way.
                stale = [key for key, way in cache_set.items()
                         if way.state is _INVALID]
                for key in stale:
                    del cache_set[key]
                    del lines[key]
                if not stale:
                    # The least recently used non-speculative way; the
                    # first one on a tie.
                    for way in cache_set.values():
                        if way.spec_read is None and way.spec_written is None \
                                and (victim is None
                                     or way.last_use < victim.last_use):
                            victim = way
                    if victim is None:
                        return None, None
                    del cache_set[victim.address]
                    del lines[victim.address]
            # Positional arguments: a fill builds a block on most L1
            # misses, and keyword arguments make the dataclass call about
            # twice as slow.
            block = CacheBlock(baddr, state, dirty)
            block.spec_registry = self._spec_marked
            cache_set[baddr] = block
            lines[baddr] = block
        self.lru_clock += 1
        block.last_use = self.lru_clock
        return block, victim

    def remove(self, addr: int) -> Optional[CacheBlock]:
        """Remove and return the block containing ``addr`` (if present)."""
        baddr = addr & self._block_mask
        block = self.lines.pop(baddr, None)
        if block is not None:
            # A resident block's set has materialized.
            del self._sets[(baddr >> self._block_shift) % self._num_sets][baddr]
        return block

    # -- flash operations (Figure 3) --------------------------------------

    def _is_current(self, block: CacheBlock) -> bool:
        """Is ``block`` still this cache's resident copy of its address?"""
        return self.lines.get(block.address) is block

    def _speculative_marked(self) -> List[CacheBlock]:
        """Resident, valid, still-speculative blocks from the registry."""
        return [block for block in self._spec_marked.values()
                if block.speculative and block.state.is_valid
                and self._is_current(block)]

    def flash_clear_spec_bits(self, checkpoint_id: Optional[int] = None) -> int:
        """Clear speculative bits; returns the number of blocks affected.

        With ``checkpoint_id`` given, only bits belonging to that
        checkpoint are cleared (used when one of two in-flight chunks
        commits).
        """
        if not self._spec_marked:
            return 0
        cleared = 0
        survivors: Dict[int, CacheBlock] = {}
        for block in self._speculative_marked():
            if checkpoint_id is None:
                block.clear_spec_bits()
                cleared += 1
            elif checkpoint_id in block.speculation_ids():
                block.clear_spec_bits_for(checkpoint_id)
                cleared += 1
                if block.speculative:
                    survivors[block.address] = block
            else:
                survivors[block.address] = block
        self._spec_marked.clear()
        self._spec_marked.update(survivors)
        return cleared

    def flash_invalidate_spec_written(
        self, checkpoint_id: Optional[int] = None
    ) -> List[int]:
        """Invalidate speculatively written blocks; returns their addresses.

        This is the conditional flash-invalidate used on abort: the only
        up-to-date copy of a speculatively written block is the speculative
        one, so the block is dropped and will be re-fetched on demand.
        Speculatively *read* bits (for the selected checkpoint) are cleared
        as well, mirroring the full flash-clear that accompanies abort.
        """
        invalidated: List[int] = []
        if not self._spec_marked:
            return invalidated
        survivors: Dict[int, CacheBlock] = {}
        for block in self._speculative_marked():
            if checkpoint_id is not None \
                    and checkpoint_id not in block.speculation_ids():
                survivors[block.address] = block
                continue
            if block.spec_written is not None and (
                checkpoint_id is None or block.spec_written == checkpoint_id
            ):
                invalidated.append(block.address)
                block.invalidate()
            else:
                if checkpoint_id is None:
                    block.clear_spec_bits()
                else:
                    block.clear_spec_bits_for(checkpoint_id)
                    if block.speculative:
                        survivors[block.address] = block
        self._spec_marked.clear()
        self._spec_marked.update(survivors)
        return invalidated
