"""Memory-operation records.

A :class:`MemOp` is one retired operation in a core's program-order trace.
The five kinds mirror the instruction classes whose retirement behaviour
Figure 2 of the paper distinguishes:

* ``LOAD`` and ``STORE`` -- ordinary memory accesses.
* ``ATOMIC`` -- an atomic read-modify-write (e.g. compare-and-swap); treated
  as a load and a store to the same address that must be made visible
  atomically.
* ``FENCE`` -- a full memory ordering fence (MEMBAR #Sync-style).
* ``COMPUTE`` -- a bundle of non-memory instructions whose only effect is to
  occupy the core for a given number of cycles.

Operations carry an optional ``label`` used by workload generators to tag
their role (lock acquire/release, private/shared data, ...); labels are for
analysis only and never influence timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..errors import TraceError


class OpKind(Enum):
    """Classes of trace operations."""

    LOAD = "load"
    STORE = "store"
    ATOMIC = "atomic"
    FENCE = "fence"
    COMPUTE = "compute"

    def __init__(self, value: str) -> None:
        #: True for operations that access the memory system (a per-member
        #: constant: the simulator reads it on every op it builds).
        self.is_memory = value in ("load", "store", "atomic")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class MemOp:
    """One operation in a program-order trace."""

    kind: OpKind
    #: byte address for memory operations; ignored for FENCE/COMPUTE.
    address: int = 0
    #: access size in bytes for memory operations.
    size: int = 8
    #: busy cycles for COMPUTE bundles (number of abstracted instructions).
    cycles: int = 1
    #: optional analysis tag, e.g. "lock_acquire" or "shared".
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind.is_memory:
            if self.address < 0:
                raise TraceError("memory operations need a non-negative address")
            if self.size <= 0:
                raise TraceError("memory operations need a positive size")
        if self.kind is OpKind.COMPUTE and self.cycles <= 0:
            raise TraceError("compute bundles must take at least one cycle")

    @property
    def is_memory(self) -> bool:
        return self.kind.is_memory

    @property
    def reads(self) -> bool:
        return self.kind in (OpKind.LOAD, OpKind.ATOMIC)

    @property
    def writes(self) -> bool:
        return self.kind in (OpKind.STORE, OpKind.ATOMIC)

    def describe(self) -> str:
        """Human-readable one-line description (for debugging and reports)."""
        if self.kind is OpKind.COMPUTE:
            body = f"{self.cycles} cycles"
        elif self.kind is OpKind.FENCE:
            body = "full fence"
        else:
            body = f"addr={self.address:#x} size={self.size}"
        tag = f" [{self.label}]" if self.label else ""
        return f"{self.kind.value}: {body}{tag}"


# -- concise constructors used throughout tests and generators -------------

def load(address: int, size: int = 8, label: Optional[str] = None) -> MemOp:
    """Construct a LOAD operation."""
    return MemOp(OpKind.LOAD, address=address, size=size, label=label)


def store(address: int, size: int = 8, label: Optional[str] = None) -> MemOp:
    """Construct a STORE operation."""
    return MemOp(OpKind.STORE, address=address, size=size, label=label)


def atomic(address: int, size: int = 8, label: Optional[str] = None) -> MemOp:
    """Construct an ATOMIC read-modify-write operation."""
    return MemOp(OpKind.ATOMIC, address=address, size=size, label=label)


def fence(label: Optional[str] = None) -> MemOp:
    """Construct a full memory FENCE."""
    return MemOp(OpKind.FENCE, label=label)


def compute(cycles: int, label: Optional[str] = None) -> MemOp:
    """Construct a COMPUTE bundle occupying ``cycles`` cycles."""
    return MemOp(OpKind.COMPUTE, cycles=cycles, label=label)
