"""Tests for repro.memory.block (per-block state and speculative bits)."""

from repro.memory.block import CacheBlock, CoherenceState


class TestCoherenceState:
    def test_validity(self):
        assert not CoherenceState.INVALID.is_valid
        assert CoherenceState.SHARED.is_valid
        assert CoherenceState.EXCLUSIVE.is_valid
        assert CoherenceState.MODIFIED.is_valid

    def test_writability(self):
        assert not CoherenceState.INVALID.is_writable
        assert not CoherenceState.SHARED.is_writable
        assert CoherenceState.EXCLUSIVE.is_writable
        assert CoherenceState.MODIFIED.is_writable


class TestSpeculativeBits:
    def test_fresh_block_not_speculative(self):
        block = CacheBlock(address=0)
        assert not block.speculative

    # Which external requests conflict with each bit is the memory
    # system's rule: tests/test_memory_system.py::TestConflictDetection.

    def test_spec_read_sets_only_the_read_bit(self):
        block = CacheBlock(address=0, state=CoherenceState.SHARED)
        block.mark_spec_read(7)
        assert block.speculative
        assert (block.spec_read, block.spec_written) == (7, None)

    def test_spec_written_sets_only_the_write_bit(self):
        block = CacheBlock(address=0, state=CoherenceState.MODIFIED)
        block.mark_spec_written(7)
        assert block.speculative
        assert (block.spec_read, block.spec_written) == (None, 7)

    def test_first_setter_retained(self):
        block = CacheBlock(address=0, state=CoherenceState.MODIFIED)
        block.mark_spec_read(1)
        block.mark_spec_read(2)
        assert block.spec_read == 1
        block.mark_spec_written(3)
        block.mark_spec_written(4)
        assert block.spec_written == 3
        assert block.speculation_ids() == {1, 3}

    def test_clear_spec_bits(self):
        block = CacheBlock(address=0, state=CoherenceState.MODIFIED)
        block.mark_spec_read(1)
        block.mark_spec_written(1)
        block.clear_spec_bits()
        assert not block.speculative
        assert block.speculation_ids() == set()

    def test_clear_spec_bits_for_specific_checkpoint(self):
        block = CacheBlock(address=0, state=CoherenceState.MODIFIED)
        block.mark_spec_read(1)
        block.mark_spec_written(2)
        block.clear_spec_bits_for(1)
        assert block.spec_read is None
        assert block.spec_written == 2
        block.clear_spec_bits_for(2)
        assert not block.speculative

    def test_invalidate_clears_everything(self):
        block = CacheBlock(address=0, state=CoherenceState.MODIFIED, dirty=True)
        block.mark_spec_written(5)
        block.invalidate()
        assert block.state is CoherenceState.INVALID
        assert not block.dirty
        assert not block.speculative
