"""Trace representation: per-thread sequences of retired memory operations.

The simulator is trace driven: each core consumes a :class:`Trace`, a
program-order sequence of :class:`MemOp` records (loads, stores, atomic
read-modify-writes, memory fences, and compute bundles that stand in for
non-memory instructions).
"""

from .ops import MemOp, OpKind, atomic, compute, fence, load, store
from .trace import Trace, MultiThreadedTrace

__all__ = [
    "MemOp",
    "OpKind",
    "load",
    "store",
    "atomic",
    "fence",
    "compute",
    "Trace",
    "MultiThreadedTrace",
]
