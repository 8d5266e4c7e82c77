"""Tests for repro.memory.cache (tag array, LRU, flash operations)."""

import pytest

from repro.config import CacheConfig
from repro.errors import SimulationError
from repro.memory.block import CoherenceState
from repro.memory.cache import CacheArray


def small_cache(num_blocks: int = 8, assoc: int = 2) -> CacheArray:
    return CacheArray(CacheConfig(size_bytes=num_blocks * 64, associativity=assoc,
                                  block_bytes=64, hit_latency=2))


def addr_in_set(cache: CacheArray, set_index: int, tag: int) -> int:
    """Build an address mapping to a specific set."""
    num_sets = cache.config.num_sets
    return (tag * num_sets + set_index) * 64


class TestLookupAndInstall:
    def test_empty_cache_misses(self):
        cache = small_cache()
        assert cache.lookup(0) is None
        assert not cache.contains(0)

    def test_install_then_hit(self):
        cache = small_cache()
        cache.install(0, CoherenceState.SHARED)
        assert cache.contains(0)
        block = cache.lookup(0)
        assert block is not None
        assert block.state is CoherenceState.SHARED

    def test_lookup_matches_any_address_in_block(self):
        cache = small_cache()
        cache.install(128, CoherenceState.EXCLUSIVE)
        assert cache.contains(128 + 63)
        assert not cache.contains(128 + 64)

    def test_is_writable(self):
        cache = small_cache()
        cache.install(0, CoherenceState.SHARED)
        cache.install(64, CoherenceState.MODIFIED)
        assert not cache.is_writable(0)
        assert cache.is_writable(64)

    def test_install_invalid_state_rejected(self):
        cache = small_cache()
        with pytest.raises(SimulationError):
            cache.install(0, CoherenceState.INVALID)

    def test_install_updates_existing_block(self):
        cache = small_cache()
        cache.install(0, CoherenceState.SHARED)
        cache.install(0, CoherenceState.MODIFIED, dirty=True)
        block = cache.lookup(0)
        assert block.state is CoherenceState.MODIFIED
        assert block.dirty
        assert len(cache) == 1

    def test_remove(self):
        cache = small_cache()
        cache.install(0, CoherenceState.SHARED)
        removed = cache.remove(0)
        assert removed is not None
        assert not cache.contains(0)
        assert cache.remove(0) is None


class TestEviction:
    def test_no_eviction_while_set_has_room(self):
        cache = small_cache(num_blocks=8, assoc=2)
        a = addr_in_set(cache, 0, 0)
        block, victim = cache.install(a, CoherenceState.SHARED)
        assert block is not None and block.address == a
        assert victim is None

    def test_lru_victim_selected(self):
        cache = small_cache(num_blocks=8, assoc=2)
        a = addr_in_set(cache, 0, 0)
        b = addr_in_set(cache, 0, 1)
        c = addr_in_set(cache, 0, 2)
        cache.install(a, CoherenceState.SHARED)
        cache.install(b, CoherenceState.SHARED)
        cache.lookup(a)  # make b the LRU block
        block, victim = cache.install(c, CoherenceState.SHARED)
        assert victim is not None
        assert victim.address == b
        assert cache.contains(a) and cache.contains(c)
        assert not cache.contains(b)

    def test_dirty_victim_needs_writeback(self):
        cache = small_cache(num_blocks=8, assoc=1)
        a = addr_in_set(cache, 0, 0)
        b = addr_in_set(cache, 0, 1)
        cache.install(a, CoherenceState.MODIFIED, dirty=True)
        _, victim = cache.install(b, CoherenceState.SHARED)
        assert victim is not None
        assert victim.dirty and victim.state is CoherenceState.MODIFIED

    def test_clean_victim_needs_no_writeback(self):
        cache = small_cache(num_blocks=8, assoc=1)
        a = addr_in_set(cache, 0, 0)
        b = addr_in_set(cache, 0, 1)
        cache.install(a, CoherenceState.SHARED)
        _, victim = cache.install(b, CoherenceState.SHARED)
        assert victim is not None
        assert not victim.dirty

    def test_speculative_blocks_not_chosen_as_victims(self):
        cache = small_cache(num_blocks=8, assoc=2)
        a = addr_in_set(cache, 0, 0)
        b = addr_in_set(cache, 0, 1)
        c = addr_in_set(cache, 0, 2)
        spec, _ = cache.install(a, CoherenceState.MODIFIED)
        spec.mark_spec_written(1)
        cache.install(b, CoherenceState.SHARED)  # a is the LRU block
        _, victim = cache.install(c, CoherenceState.SHARED)
        assert victim is not None
        assert victim.address == b

    def test_all_speculative_set_requires_forced_commit(self):
        cache = small_cache(num_blocks=8, assoc=2)
        a = addr_in_set(cache, 0, 0)
        b = addr_in_set(cache, 0, 1)
        c = addr_in_set(cache, 0, 2)
        cache.install(a, CoherenceState.MODIFIED)[0].mark_spec_written(1)
        cache.install(b, CoherenceState.SHARED)[0].mark_spec_read(1)
        assert cache.install(c, CoherenceState.SHARED) == (None, None)
        # Nothing was evicted and nothing installed.
        assert cache.contains(a) and cache.contains(b)
        assert not cache.contains(c)
        assert len(cache) == 2
        # Once the speculation commits, the same fill evicts the LRU way.
        cache.flash_clear_spec_bits()
        block, victim = cache.install(c, CoherenceState.SHARED)
        assert block is not None and victim.address == a

    def test_install_into_full_set_evicts(self):
        cache = small_cache(num_blocks=8, assoc=1)
        a = addr_in_set(cache, 0, 0)
        b = addr_in_set(cache, 0, 1)
        cache.install(a, CoherenceState.SHARED)
        block, victim = cache.install(b, CoherenceState.SHARED)
        assert block is cache.lookup(b)
        assert victim is not None and victim.address == a
        assert not cache.contains(a)
        assert len(cache) == 1

    def test_invalid_placeholder_frees_a_way_in_a_full_set(self):
        cache = small_cache(num_blocks=8, assoc=2)
        a = addr_in_set(cache, 0, 0)
        b = addr_in_set(cache, 0, 1)
        c = addr_in_set(cache, 0, 2)
        cache.install(a, CoherenceState.SHARED)[0].invalidate()
        cache.install(b, CoherenceState.SHARED)
        # The set's two ways are taken: a's invalid placeholder and b,
        # which is also the valid LRU block.
        block, victim = cache.install(c, CoherenceState.SHARED)
        assert block is not None and victim is None
        assert cache.contains(b) and cache.contains(c)
        assert len(cache) == 2

    def test_upgrade_in_a_full_set_evicts_nothing(self):
        cache = small_cache(num_blocks=8, assoc=1)
        a = addr_in_set(cache, 0, 0)
        shared, _ = cache.install(a, CoherenceState.SHARED)
        block, victim = cache.install(a, CoherenceState.MODIFIED, dirty=True)
        assert block is shared and victim is None
        assert block.state is CoherenceState.MODIFIED and block.dirty

    def test_capacity_never_exceeded_with_protocol(self):
        cache = small_cache(num_blocks=8, assoc=2)
        for i in range(50):
            addr = i * 64
            block, _ = cache.install(addr, CoherenceState.SHARED)
            assert block is not None
        assert len(cache) <= 8


class TestFlashOperations:
    def test_flash_clear_spec_bits(self):
        cache = small_cache()
        for i in range(4):
            block, _ = cache.install(i * 64, CoherenceState.MODIFIED)
            if i % 2 == 0:
                block.mark_spec_read(1)
            else:
                block.mark_spec_written(1)
        cleared = cache.flash_clear_spec_bits()
        assert cleared == 4
        assert not any(b.speculative for b in cache.blocks())
        # All blocks remain valid: commit publishes speculative data.
        assert len(cache) == 4

    def test_flash_clear_specific_checkpoint(self):
        cache = small_cache()
        cache.install(0, CoherenceState.MODIFIED)[0].mark_spec_written(1)
        cache.install(64, CoherenceState.MODIFIED)[0].mark_spec_written(2)
        cache.flash_clear_spec_bits(checkpoint_id=1)
        assert cache.lookup(0).spec_written is None
        assert cache.lookup(64).spec_written == 2

    def test_flash_invalidate_spec_written(self):
        cache = small_cache()
        written, _ = cache.install(0, CoherenceState.MODIFIED)
        written.mark_spec_written(1)
        read_only, _ = cache.install(64, CoherenceState.SHARED)
        read_only.mark_spec_read(1)
        plain, _ = cache.install(128, CoherenceState.MODIFIED, dirty=True)

        invalidated = cache.flash_invalidate_spec_written()
        assert invalidated == [0]
        assert not cache.contains(0)
        # Speculatively read blocks stay valid but lose their bits.
        assert cache.contains(64)
        assert not cache.lookup(64).speculative
        # Unrelated blocks are untouched.
        assert cache.contains(128)
        assert cache.lookup(128).dirty

    def test_flash_invalidate_specific_checkpoint(self):
        cache = small_cache()
        cache.install(0, CoherenceState.MODIFIED)[0].mark_spec_written(1)
        cache.install(64, CoherenceState.MODIFIED)[0].mark_spec_written(2)
        invalidated = cache.flash_invalidate_spec_written(checkpoint_id=2)
        assert invalidated == [64]
        assert cache.contains(0)
        assert not cache.contains(64)

    def test_speculative_blocks_iterator(self):
        cache = small_cache()
        cache.install(0, CoherenceState.MODIFIED)[0].mark_spec_written(1)
        cache.install(64, CoherenceState.SHARED)
        spec_addrs = [b.address for b in cache.speculative_blocks()]
        assert spec_addrs == [0]
