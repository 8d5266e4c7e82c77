"""Tests for repro.memory.address."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.address import WORD_BYTES, block_mask


class TestBlockAddress:
    def test_aligns_down(self):
        mask = block_mask(64)
        assert 0 & mask == 0
        assert 63 & mask == 0
        assert 64 & mask == 64
        assert 130 & mask == 128

    def test_identity_for_aligned(self):
        for addr in (0, 64, 128, 1024 * 64):
            assert addr & block_mask(64) == addr

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            block_mask(48)

    def test_rejects_zero_block(self):
        with pytest.raises(ConfigurationError):
            block_mask(0)

    @pytest.mark.parametrize("block", (1, 8, 64, 128, 4096))
    def test_matches_the_remainder_definition(self, block):
        mask = block_mask(block)
        for addr in (0, 1, block - 1, block, block + 1,
                     3 * block + block // 2, (1 << 40) + 5):
            assert addr & mask == addr - addr % block

    @pytest.mark.parametrize("block", (-64, -1, 3, 96, 100))
    def test_rejects_sizes_other_than_positive_powers_of_two(self, block):
        with pytest.raises(ConfigurationError):
            block_mask(block)

    def test_word_is_a_fifo_store_buffer_entry(self):
        from repro.config import (ConsistencyModel, SpeculationConfig,
                                  default_store_buffer)

        for model in (ConsistencyModel.SC, ConsistencyModel.TSO):
            fifo = default_store_buffer(model, SpeculationConfig())
            assert fifo.entry_bytes == WORD_BYTES
        assert 64 % WORD_BYTES == 0
