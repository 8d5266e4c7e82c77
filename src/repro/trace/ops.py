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


_NEGATIVE_ADDRESS = "memory operations need a non-negative address"
_NONPOSITIVE_SIZE = "memory operations need a positive size"
_NONPOSITIVE_CYCLES = "compute bundles must take at least one cycle"


@dataclass(frozen=True, slots=True)
class MemOp:
    """One operation in a program-order trace.

    Slotted, so an op is small and cheap to build: trace generation makes
    hundreds of thousands of them.  A direct ``MemOp(...)`` call
    (``dataclasses.replace``, tests) validates in
    :meth:`__post_init__`; the constructors below validate their own
    arguments and skip the generated ``__init__``.
    """

    kind: OpKind
    #: byte address for memory operations; ignored for FENCE/COMPUTE.
    address: int = 0
    #: access size in bytes for memory operations.
    size: int = 8
    #: busy cycles for COMPUTE bundles (number of abstracted instructions);
    #: always 1 for the other kinds, so it is every op's instruction weight.
    cycles: int = 1
    #: optional analysis tag, e.g. "lock_acquire" or "shared".
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind is OpKind.COMPUTE:
            if self.cycles <= 0:
                raise TraceError(_NONPOSITIVE_CYCLES)
            return
        if self.kind.is_memory:
            if self.address < 0:
                raise TraceError(_NEGATIVE_ADDRESS)
            if self.size <= 0:
                raise TraceError(_NONPOSITIVE_SIZE)
        if self.cycles != 1:
            raise TraceError(
                f"a {self.kind.value} op retires one instruction, "
                f"not cycles={self.cycles}")

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
#
# Each constructor runs the checks MemOp.__post_init__ runs for its kind and
# fills the five slots through the class's slot descriptors, all in its own
# frame: the frozen dataclass's generated __init__ would pay one
# object.__setattr__ per field plus the __post_init__ call, and trace
# generation builds hundreds of thousands of ops.

_new_op = object.__new__
_set_kind = MemOp.__dict__["kind"].__set__
_set_address = MemOp.__dict__["address"].__set__
_set_size = MemOp.__dict__["size"].__set__
_set_cycles = MemOp.__dict__["cycles"].__set__
_set_label = MemOp.__dict__["label"].__set__
_LOAD = OpKind.LOAD
_STORE = OpKind.STORE
_ATOMIC = OpKind.ATOMIC
_COMPUTE = OpKind.COMPUTE


def load(address: int, size: int = 8, label: Optional[str] = None) -> MemOp:
    """Construct a LOAD operation."""
    if address < 0:
        raise TraceError(_NEGATIVE_ADDRESS)
    if size <= 0:
        raise TraceError(_NONPOSITIVE_SIZE)
    op = _new_op(MemOp)
    _set_kind(op, _LOAD)
    _set_address(op, address)
    _set_size(op, size)
    _set_cycles(op, 1)
    _set_label(op, label)
    return op


def store(address: int, size: int = 8, label: Optional[str] = None) -> MemOp:
    """Construct a STORE operation."""
    if address < 0:
        raise TraceError(_NEGATIVE_ADDRESS)
    if size <= 0:
        raise TraceError(_NONPOSITIVE_SIZE)
    op = _new_op(MemOp)
    _set_kind(op, _STORE)
    _set_address(op, address)
    _set_size(op, size)
    _set_cycles(op, 1)
    _set_label(op, label)
    return op


def atomic(address: int, size: int = 8, label: Optional[str] = None) -> MemOp:
    """Construct an ATOMIC read-modify-write operation."""
    if address < 0:
        raise TraceError(_NEGATIVE_ADDRESS)
    if size <= 0:
        raise TraceError(_NONPOSITIVE_SIZE)
    op = _new_op(MemOp)
    _set_kind(op, _ATOMIC)
    _set_address(op, address)
    _set_size(op, size)
    _set_cycles(op, 1)
    _set_label(op, label)
    return op


def fence(label: Optional[str] = None) -> MemOp:
    """Construct a full memory FENCE."""
    op = _new_op(MemOp)
    _set_kind(op, OpKind.FENCE)
    _set_address(op, 0)
    _set_size(op, 8)
    _set_cycles(op, 1)
    _set_label(op, label)
    return op


def compute(cycles: int, label: Optional[str] = None) -> MemOp:
    """Construct a COMPUTE bundle occupying ``cycles`` cycles."""
    if cycles <= 0:
        raise TraceError(_NONPOSITIVE_CYCLES)
    op = _new_op(MemOp)
    _set_kind(op, _COMPUTE)
    _set_address(op, 0)
    _set_size(op, 8)
    _set_cycles(op, cycles)
    _set_label(op, label)
    return op
