"""Invalidation-based directory cache coherence.

InvisiFence's central claim is that it works under a *conventional*
invalidation-based protocol: store permissions are acquired eagerly per
block, writes to the same block are serialised by the directory, and the
processor is informed when a store miss completes.  This package implements
that substrate:

* :mod:`repro.coherence.directory` -- full-map directory state (sharers,
  owner, per-block serialisation).
* :mod:`repro.coherence.l2` -- shared L2 tag array used for hit/miss latency.
* :mod:`repro.coherence.memory_system` -- the synchronous protocol engine
  that L1s/cores call into; it computes transaction latencies, applies
  global state changes, and performs InvisiFence conflict detection by
  consulting the speculative bits of victim L1 blocks.  An enabled
  recorder's ``dir.*`` instant is the only record of each transaction.
"""

from .directory import Directory, DirectoryEntry
from .l2 import L2Cache
from .memory_system import AccessOutcome, ExternalConflictListener, MemorySystem

__all__ = [
    "Directory",
    "DirectoryEntry",
    "L2Cache",
    "AccessOutcome",
    "MemorySystem",
    "ExternalConflictListener",
]
