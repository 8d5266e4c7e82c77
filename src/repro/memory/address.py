"""Address arithmetic helpers.

Addresses are plain integers (byte addresses).  A cache-block address is
the byte address of the first byte in the block; words are 8 bytes,
matching the FIFO store buffer entries of the SC/TSO baselines in
Figure 6.
"""

from __future__ import annotations

from ..errors import ConfigurationError

#: Word size used by the word-granularity FIFO store buffers (bytes).
WORD_BYTES = 8


def block_mask(block_bytes: int) -> int:
    """Validated AND-mask that maps a byte address to its block address.

    Hot paths precompute this once and apply it per access.
    """
    if block_bytes <= 0 or block_bytes & (block_bytes - 1):
        raise ConfigurationError(f"block size must be a power of two, got {block_bytes}")
    return ~(block_bytes - 1)
