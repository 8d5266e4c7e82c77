"""Tests for repro.cpu.store_buffer."""

import pytest

from repro.config import StoreBufferConfig, StoreBufferKind
from repro.cpu.store_buffer import (
    CoalescingStoreBuffer,
    FIFOStoreBuffer,
    make_store_buffer,
)
from repro.errors import StoreBufferError


def fifo(entries: int = 4) -> FIFOStoreBuffer:
    return FIFOStoreBuffer(StoreBufferConfig(StoreBufferKind.FIFO_WORD, entries, 8))


def coalescing(entries: int = 4) -> CoalescingStoreBuffer:
    return CoalescingStoreBuffer(
        StoreBufferConfig(StoreBufferKind.COALESCING_BLOCK, entries, 64))


class TestFactory:
    def test_make_fifo(self):
        sb = make_store_buffer(StoreBufferConfig(StoreBufferKind.FIFO_WORD, 64, 8))
        assert isinstance(sb, FIFOStoreBuffer)

    def test_make_coalescing(self):
        sb = make_store_buffer(
            StoreBufferConfig(StoreBufferKind.COALESCING_BLOCK, 8, 64))
        assert isinstance(sb, CoalescingStoreBuffer)

    def test_wrong_kind_rejected(self):
        with pytest.raises(StoreBufferError):
            FIFOStoreBuffer(StoreBufferConfig(StoreBufferKind.COALESCING_BLOCK, 8, 64))
        with pytest.raises(StoreBufferError):
            CoalescingStoreBuffer(StoreBufferConfig(StoreBufferKind.FIFO_WORD, 8, 8))


class TestFIFO:
    def test_empty_initially(self):
        sb = fifo()
        assert sb.is_empty(0)
        assert not sb.is_full(0)
        assert sb.drain_time(0) == 0

    def test_word_granularity_no_coalescing(self):
        sb = fifo(entries=4)
        # Two stores to different words of the same block take two entries.
        sb.add_store(0, now=0, completion_time=100)
        sb.add_store(8, now=0, completion_time=100)
        assert sb.occupancy(0) == 2

    def test_same_word_still_takes_new_entry(self):
        sb = fifo(entries=4)
        sb.add_store(0, now=0, completion_time=50)
        sb.add_store(0, now=0, completion_time=60)
        assert sb.occupancy(0) == 2

    def test_fifo_release_order_enforced(self):
        sb = fifo(entries=4)
        first = sb.add_store(0, now=0, completion_time=200)
        second = sb.add_store(8, now=0, completion_time=50)
        # The younger store cannot leave before the older one.
        assert second.release_time >= first.release_time
        assert sb.drain_time(0) == 200

    def test_release_times_monotonic(self):
        sb = fifo(entries=8)
        times = [300, 100, 250, 50, 400]
        releases = [sb.add_store(i * 8, 0, t).release_time for i, t in enumerate(times)]
        assert releases == sorted(releases)

    def test_capacity_and_free_slot(self):
        sb = fifo(entries=2)
        sb.add_store(0, now=0, completion_time=100)
        sb.add_store(8, now=0, completion_time=150)
        assert sb.is_full(0)
        assert sb.next_free_slot_time(0) == 100
        with pytest.raises(StoreBufferError):
            sb.add_store(16, now=0, completion_time=80)

    def test_entries_expire(self):
        sb = fifo(entries=2)
        sb.add_store(0, now=0, completion_time=100)
        assert sb.is_empty(100)
        assert not sb.is_full(150)

    def test_drain_time_after_partial_expiry(self):
        sb = fifo(entries=4)
        sb.add_store(0, now=0, completion_time=100)
        sb.add_store(8, now=0, completion_time=300)
        assert sb.drain_time(150) == 300

    def test_peak_occupancy_tracked(self):
        sb = fifo(entries=4)
        for i in range(3):
            sb.add_store(i * 8, 0, 1000)
        assert sb.peak_occupancy == 3
        assert sb.total_inserted == 3


class TestCoalescing:
    def test_block_granularity_coalescing(self):
        sb = coalescing(entries=4)
        sb.add_store(0, now=0, completion_time=100)
        sb.add_store(32, now=0, completion_time=120)   # same 64-byte block
        assert sb.occupancy(0) == 1
        assert sb.coalesced == 1

    def test_coalescing_extends_lifetime(self):
        sb = coalescing(entries=4)
        sb.add_store(0, now=0, completion_time=100)
        entry = sb.add_store(8, now=0, completion_time=250)
        assert entry.release_time == 250
        assert sb.drain_time(0) == 250

    def test_different_blocks_take_separate_entries(self):
        sb = coalescing(entries=4)
        sb.add_store(0, now=0, completion_time=100)
        sb.add_store(64, now=0, completion_time=100)
        assert sb.occupancy(0) == 2

    def test_unordered_release(self):
        sb = coalescing(entries=4)
        older = sb.add_store(0, now=0, completion_time=500)
        younger = sb.add_store(64, now=0, completion_time=50)
        # Coalescing buffers are unordered: the younger store may complete first.
        assert younger.release_time < older.release_time
        assert sb.occupancy(100) == 1

    def test_speculative_and_nonspeculative_never_merge(self):
        sb = coalescing(entries=4)
        sb.add_store(0, now=0, completion_time=100, speculative=False)
        sb.add_store(8, now=0, completion_time=100, speculative=True, checkpoint_id=1)
        assert sb.occupancy(0) == 2

    def test_capacity_enforced(self):
        sb = coalescing(entries=2)
        sb.add_store(0, 0, 100)
        sb.add_store(64, 0, 100)
        assert sb.is_full(0)
        with pytest.raises(StoreBufferError):
            sb.add_store(128, 0, 100)

    def test_coalescing_leaves_released_entries_until_an_insertion(self):
        sb = coalescing(entries=2)
        sb.add_store(0, 0, 100)
        live = sb.add_store(64, 0, 500)
        assert sb.add_store(72, now=200, completion_time=600) is live
        assert len(sb.entries()) == 2       # the released entry is still held
        sb.add_store(128, now=200, completion_time=300)
        assert [e.address for e in sb.entries()] == [64, 128]
        assert sb.total_inserted == 3 and sb.coalesced == 1

    def test_released_entries_do_not_count_against_capacity(self):
        for sb in (coalescing(entries=2), fifo(entries=2)):
            sb.add_store(0, 0, 100)
            sb.add_store(64, 0, 150)
            with pytest.raises(StoreBufferError):
                sb.add_store(128, 90, 300)
            sb.add_store(128, 120, 300)   # the entry released at 100 leaves
            assert len(sb.entries()) == 2
            assert sb.occupancy(120) == 2 and sb.peak_occupancy == 2

    def test_has_block(self):
        sb = coalescing(entries=4)
        sb.add_store(64, 0, 100)
        assert sb.has_block(64 + 8, 0)
        assert not sb.has_block(128, 0)
        assert not sb.has_block(64, 200)   # expired


class TestSpeculativeBookkeeping:
    def test_flash_invalidate_speculative_only(self):
        sb = coalescing(entries=8)
        sb.add_store(0, 0, 1000, speculative=False)
        sb.add_store(64, 0, 1000, speculative=True, checkpoint_id=1)
        sb.add_store(128, 0, 1000, speculative=True, checkpoint_id=2)
        dropped = sb.flash_invalidate_speculative(0)
        assert dropped == 2
        assert sb.occupancy(0) == 1

    def test_flash_invalidate_specific_checkpoint(self):
        sb = coalescing(entries=8)
        sb.add_store(64, 0, 1000, speculative=True, checkpoint_id=1)
        sb.add_store(128, 0, 1000, speculative=True, checkpoint_id=2)
        dropped = sb.flash_invalidate_speculative(0, checkpoint_id=2)
        assert dropped == 1
        remaining = sb.entries(0)
        assert len(remaining) == 1 and remaining[0].checkpoint_id == 1

    @pytest.mark.parametrize("make", [coalescing, fifo])
    def test_flash_invalidate_keeps_released_entries(self, make):
        sb = make(entries=8)
        released = sb.add_store(0, 0, 100, speculative=True, checkpoint_id=2)
        live = sb.add_store(64, 0, 1000, speculative=True, checkpoint_id=2)
        other = sb.add_store(128, 0, 1000, speculative=True, checkpoint_id=1)
        assert sb.flash_invalidate_speculative(500, checkpoint_id=2) == 1
        assert sb.flash_invalidated == 1
        held = sb.entries()
        assert released in held and other in held and live not in held
        assert sb.drain_time(500) == 1000

    def test_mark_all_non_speculative(self):
        sb = coalescing(entries=8)
        sb.add_store(64, 0, 1000, speculative=True, checkpoint_id=1)
        sb.mark_all_non_speculative(0)
        assert all(not e.speculative for e in sb.entries(0))
        # Nothing left to invalidate afterwards.
        assert sb.flash_invalidate_speculative(0) == 0

    def test_mark_specific_checkpoint_non_speculative(self):
        sb = coalescing(entries=8)
        sb.add_store(64, 0, 1000, speculative=True, checkpoint_id=1)
        sb.add_store(128, 0, 1000, speculative=True, checkpoint_id=2)
        sb.mark_all_non_speculative(0, checkpoint_id=1)
        specs = [e.checkpoint_id for e in sb.entries(0) if e.speculative]
        assert specs == [2]

    def test_drain_time_for_checkpoint(self):
        sb = coalescing(entries=8)
        sb.add_store(64, 0, 300, speculative=True, checkpoint_id=1)
        sb.add_store(128, 0, 700, speculative=True, checkpoint_id=2)
        assert sb.drain_time_for_checkpoint(1, 0) == 300
        assert sb.drain_time_for_checkpoint(2, 0) == 700
        assert sb.drain_time_for_checkpoint(99, 0) == 0
