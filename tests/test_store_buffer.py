"""Tests for repro.cpu.store_buffer."""

import pytest
from hypothesis import given, settings, strategies as st

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
        assert second >= first == 200
        assert sb.drain_time(0) == 200

    def test_release_times_monotonic(self):
        sb = fifo(entries=8)
        times = [300, 100, 250, 50, 400]
        releases = [sb.add_store(i * 8, 0, t) for i, t in enumerate(times)]
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
        assert sb.add_store(8, now=0, completion_time=250) == 250
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
        assert younger < older
        assert sb.occupancy(100) == 1

    def test_speculative_and_nonspeculative_never_merge(self):
        sb = coalescing(entries=4)
        sb.add_store(0, now=0, completion_time=100)
        sb.add_store(8, now=0, completion_time=100, checkpoint_id=1)
        assert sb.occupancy(0) == 2
        # Nor a non-speculative store into a speculative entry.
        sb.add_store(64, now=0, completion_time=100, checkpoint_id=1)
        sb.add_store(72, now=0, completion_time=100)
        assert [(e.address, e.speculative) for e in sb.entries(0)] == \
            [(0, False), (0, True), (64, True), (64, False)]

    def test_speculative_stores_of_two_checkpoints_share_one_entry(self):
        sb = coalescing(entries=4)
        sb.add_store(0, now=0, completion_time=100, checkpoint_id=1)
        assert sb.add_store(8, now=0, completion_time=300,
                            checkpoint_id=2) == 300
        # The entry keeps the first store's checkpoint.
        assert [(e.address, e.release_time, e.checkpoint_id)
                for e in sb.entries(0)] == [(0, 300, 1)]
        assert sb.coalesced == 1

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
        sb.add_store(64, 0, 500)
        # Coalesces into the live entry for block 64, extending it.
        assert sb.add_store(72, now=200, completion_time=600) == 600
        assert len(sb.entries()) == 2       # the released entry is still held
        sb.add_store(128, now=200, completion_time=300)
        assert [(e.address, e.release_time) for e in sb.entries()] == \
            [(64, 600), (128, 300)]
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
        sb.add_store(0, 0, 1000)
        sb.add_store(64, 0, 1000, checkpoint_id=1)
        sb.add_store(128, 0, 1000, checkpoint_id=2)
        dropped = sb.flash_invalidate_speculative(0)
        assert dropped == 2
        assert sb.occupancy(0) == 1

    def test_flash_invalidate_specific_checkpoint(self):
        sb = coalescing(entries=8)
        sb.add_store(64, 0, 1000, checkpoint_id=1)
        sb.add_store(128, 0, 1000, checkpoint_id=2)
        dropped = sb.flash_invalidate_speculative(0, checkpoint_id=2)
        assert dropped == 1
        remaining = sb.entries(0)
        assert len(remaining) == 1 and remaining[0].checkpoint_id == 1

    @pytest.mark.parametrize("make", [coalescing, fifo])
    def test_flash_invalidate_keeps_released_entries(self, make):
        sb = make(entries=8)
        sb.add_store(0, 0, 100, checkpoint_id=2)  # released
        sb.add_store(64, 0, 1000, checkpoint_id=2)
        sb.add_store(128, 0, 1000, checkpoint_id=1)
        assert sb.flash_invalidate_speculative(500, checkpoint_id=2) == 1
        assert sb.flash_invalidated == 1
        # Block 64's live entry went; the released entry and the other
        # checkpoint's stay.
        assert [e.address for e in sb.entries()] == [0, 128]
        assert sb.drain_time(500) == 1000

    def test_mark_all_non_speculative(self):
        sb = coalescing(entries=8)
        sb.add_store(64, 0, 1000, checkpoint_id=1)
        sb.mark_all_non_speculative(0)
        assert all(not e.speculative for e in sb.entries(0))
        # Nothing left to invalidate afterwards.
        assert sb.flash_invalidate_speculative(0) == 0

    def test_mark_specific_checkpoint_non_speculative(self):
        sb = coalescing(entries=8)
        sb.add_store(64, 0, 1000, checkpoint_id=1)
        sb.add_store(128, 0, 1000, checkpoint_id=2)
        sb.mark_all_non_speculative(0, checkpoint_id=1)
        specs = [e.checkpoint_id for e in sb.entries(0) if e.speculative]
        assert specs == [2]

    def test_drain_time_for_checkpoint(self):
        sb = coalescing(entries=8)
        sb.add_store(64, 0, 300, checkpoint_id=1)
        sb.add_store(128, 0, 700, checkpoint_id=2)
        assert sb.drain_time_for_checkpoint(1, 0) == 300
        assert sb.drain_time_for_checkpoint(2, 0) == 700
        assert sb.drain_time_for_checkpoint(99, 0) == 0


class _FIFOModel:
    """A FIFO store buffer as a plain list of entries, oldest first.

    Each entry is ``[word address, release time, checkpoint id or None]``;
    an entry is live at ``now`` while its release time is later.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.held = []
        self.peak = 0
        self.inserted = 0
        self.invalidated = 0

    def live(self, now):
        return [e for e in self.held if e[1] > now]

    def add(self, addr, now, completion, checkpoint):
        """The release time, or ``None`` when the live entries fill the buffer."""
        # An entry leaves after every older one; an empty buffer cannot
        # release a store before the present.
        if self.held:
            release = max(completion, max(e[1] for e in self.held))
        else:
            release = max(completion, now)
        self.held = self.live(now)
        if len(self.held) >= self.capacity:
            return None
        self.held.append([addr & ~7, release, checkpoint])
        self.inserted += 1
        self.peak = max(self.peak, len(self.held))
        return release

    def flash(self, now, checkpoint):
        kept = [e for e in self.held
                if e[2] is None or e[1] <= now
                or (checkpoint is not None and e[2] != checkpoint)]
        dropped = len(self.held) - len(kept)
        self.held = kept
        self.invalidated += dropped
        return dropped

    def commit(self, checkpoint):
        for e in self.held:
            if e[2] is not None and checkpoint in (None, e[2]):
                e[2] = None


_CHECKPOINTS = st.sampled_from([None, 1, 2, 3])
_FIFO_STEPS = st.lists(st.one_of(
    st.tuples(st.just("advance"), st.integers(0, 300)),
    st.tuples(st.just("store"), st.integers(0, 47), st.integers(0, 400),
              _CHECKPOINTS),
    st.tuples(st.just("flash"), _CHECKPOINTS),
    st.tuples(st.just("commit"), _CHECKPOINTS),
), max_size=60)


class TestFIFOAgainstListModel:
    """The FIFO buffer answers every query as the list model does."""

    @staticmethod
    def _views(entries):
        return [(e.address, e.release_time, e.speculative, e.checkpoint_id)
                for e in entries]

    def _compare(self, sb, model, now):
        live = model.live(now)
        assert sb.occupancy(now) == len(live)
        assert sb.is_full(now) == (len(live) >= model.capacity)
        assert sb.next_free_slot_time(now) == (
            now if len(live) < model.capacity else min(e[1] for e in live))
        assert sb.drain_time(now) == max([now] + [e[1] for e in model.held])
        for addr in range(0, 48, 4):
            assert sb.has_block(addr, now) == any(
                e[0] == addr & ~7 for e in live)
        for checkpoint in (1, 2, 3):
            assert sb.drain_time_for_checkpoint(checkpoint, now) == max(
                [now] + [e[1] for e in live if e[2] == checkpoint])
        assert sb.peak_occupancy == model.peak
        assert sb.total_inserted == model.inserted
        assert sb.flash_invalidated == model.invalidated
        expected = [(a, r, c is not None, c) for a, r, c in model.held]
        assert self._views(sb.entries()) == expected
        assert self._views(sb.entries(now)) == [
            view for view in expected if view[1] > now]

    @given(steps=_FIFO_STEPS)
    @settings(max_examples=150, deadline=None)
    def test_matches_list_model(self, steps):
        sb, model, now = fifo(entries=4), _FIFOModel(4), 0
        for step in steps:
            kind = step[0]
            if kind == "advance":
                now += step[1]
            elif kind == "store":
                _, addr, latency, checkpoint = step
                release = model.add(addr, now, now + latency, checkpoint)
                if release is None:
                    with pytest.raises(StoreBufferError):
                        sb.add_store(addr, now, now + latency,
                                     checkpoint_id=checkpoint)
                else:
                    sb.add_store(addr, now, now + latency,
                                 checkpoint_id=checkpoint)
            elif kind == "flash":
                assert sb.flash_invalidate_speculative(now, step[1]) == \
                    model.flash(now, step[1])
            else:
                sb.mark_all_non_speculative(now, step[1])
                model.commit(step[1])
            self._compare(sb, model, now)
