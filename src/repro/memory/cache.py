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

Victim selection prefers non-speculative blocks so that a fill does not
force the eviction of a speculatively accessed block unless the whole set
is speculative; in that case the caller is told a *forced commit* is needed
(Section 3.2: "forcing a commit before evicting any speculatively-read or
speculatively-written block").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..config import CacheConfig
from ..errors import SimulationError
from .address import block_mask
from .block import CacheBlock, CoherenceState

_INVALID = CoherenceState.INVALID


@dataclass(frozen=True)
class EvictionResult:
    """Outcome of preparing a fill: which victim (if any) was evicted.

    Immutable, so the two victimless outcomes are shared constants
    (:data:`NO_VICTIM`, :data:`MUST_COMMIT`) rather than built per fill.
    """

    #: the evicted block (already removed from the cache), or None.
    victim: Optional[CacheBlock]
    #: True when the victim was dirty and must be written back.
    needs_writeback: bool
    #: True when every candidate way held speculative state, so the caller
    #: must force a speculation commit before the fill can proceed.
    requires_forced_commit: bool


#: a fill that finds its block present or a free way: nothing to evict.
NO_VICTIM = EvictionResult(victim=None, needs_writeback=False,
                           requires_forced_commit=False)
#: a fill whose every candidate way is speculative: commit first.
MUST_COMMIT = EvictionResult(victim=None, needs_writeback=False,
                             requires_forced_commit=True)


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

    def prepare_fill(self, addr: int) -> EvictionResult:
        """Make room for a fill of the block containing ``addr``.

        If the block is already present, or the set has a free way, no
        victim is chosen.  Otherwise the least-recently-used
        *non-speculative* block is evicted.  If every way in the set holds
        speculative state the caller must commit the current speculation
        first; no eviction is performed in that case.
        """
        baddr = addr & self._block_mask
        existing = self.lines.get(baddr)
        if existing is not None and existing.state is not _INVALID:
            return NO_VICTIM
        index = (baddr >> self._block_shift) % self._num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = {}
        # Drop any stale invalid entry for this address.
        if existing is not None:
            del cache_set[baddr]
            del self.lines[baddr]
        if len(cache_set) < self._assoc:
            return NO_VICTIM
        # Purge invalid placeholders to free ways; only needed once the raw
        # way count fills up (invalid blocks are unobservable elsewhere:
        # lookups, iteration, and len() all skip them).
        for key in [k for k, b in cache_set.items() if b.state is _INVALID]:
            del cache_set[key]
            del self.lines[key]
        if len(cache_set) < self._assoc:
            return NO_VICTIM
        candidates = [b for b in cache_set.values() if not b.speculative]
        if not candidates:
            return MUST_COMMIT
        victim = min(candidates, key=lambda b: b.last_use)
        del cache_set[victim.address]
        del self.lines[victim.address]
        return EvictionResult(victim=victim,
                              needs_writeback=victim.dirty
                              and victim.state is CoherenceState.MODIFIED,
                              requires_forced_commit=False)

    def install(self, addr: int, state: CoherenceState,
                dirty: bool = False) -> CacheBlock:
        """Install (or update) the block containing ``addr``.

        Callers must have invoked :meth:`prepare_fill` first when a new
        block may be needed; installing into a full set raises.
        """
        if state is _INVALID:
            raise SimulationError("cannot install a block in the INVALID state")
        baddr = addr & self._block_mask
        block = self.lines.get(baddr)
        if block is None:
            index = (baddr >> self._block_shift) % self._num_sets
            cache_set = self._sets.get(index)
            if cache_set is None:
                cache_set = self._sets[index] = {}
            if len(cache_set) >= self._assoc:
                raise SimulationError(
                    f"install into full set for address {baddr:#x}; "
                    "prepare_fill must be called first"
                )
            # Positional arguments: a fill builds a block on most L1
            # misses, and keyword arguments make the dataclass call about
            # twice as slow.
            block = CacheBlock(baddr, state, dirty)
            block.spec_registry = self._spec_marked
            cache_set[baddr] = block
            self.lines[baddr] = block
        else:
            block.state = state
            block.dirty = dirty
        self.lru_clock += 1
        block.last_use = self.lru_clock
        return block

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
