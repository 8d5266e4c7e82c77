"""Memory substrate: addresses, cache blocks, and set-associative caches.

This package provides the storage structures shared by the coherence
protocol and the processor model:

* :mod:`repro.memory.address` -- the block mask and the word size.
* :mod:`repro.memory.block` -- per-block coherence state plus the
  speculatively-read / speculatively-written bits that InvisiFence adds to
  the L1 tags (Section 3.1 of the paper).
* :mod:`repro.memory.cache` -- a set-associative, LRU cache tag array with
  the flash-clear and conditional flash-invalidate operations InvisiFence
  relies on for constant-time commit and abort.
"""

from .block import CacheBlock, CoherenceState
from .cache import CacheArray

__all__ = [
    "CacheBlock",
    "CoherenceState",
    "CacheArray",
]
