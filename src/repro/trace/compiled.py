"""Compiled trace: a struct-of-arrays view of one thread's operations.

The authoring and serialization API stays :class:`~repro.trace.ops.MemOp`
(a frozen dataclass); :class:`CompiledTrace` is the execution-kernel form
built once per trace.  Each per-op attribute lives in its own flat list
indexed by trace position, so the core's inner loop reads plain ints
instead of dataclass attributes, enum members, and properties:

* ``kinds``         -- integer opcodes (:data:`OP_LOAD` ... :data:`OP_COMPUTE`),
* ``addresses``     -- byte addresses (0 for FENCE/COMPUTE),
* ``sizes``         -- access sizes in bytes,
* ``cycles``        -- busy cycles (1 except for COMPUTE bundles),
* ``instr_weights`` -- abstracted instruction count each op retires
  (``cycles`` for COMPUTE, 1 otherwise) -- precomputed because the core
  charges it on every single op,
* ``is_memory``     -- per-op memory-access flags.

``ops`` keeps the authored :class:`MemOp` objects (shared, not copied), so
controllers still receive the authoring objects and :meth:`view` can hand
back a ``MemOp`` for any index -- e.g. when mapping a rollback target back
to the exact operation it re-executes.
"""

from __future__ import annotations

from typing import List, Sequence

from .ops import MemOp, OpKind

#: Integer opcodes, stable across the project (serialization-independent).
OP_LOAD = 0
OP_STORE = 1
OP_ATOMIC = 2
OP_FENCE = 3
OP_COMPUTE = 4

#: OpKind -> integer opcode.
OPCODES = {
    OpKind.LOAD: OP_LOAD,
    OpKind.STORE: OP_STORE,
    OpKind.ATOMIC: OP_ATOMIC,
    OpKind.FENCE: OP_FENCE,
    OpKind.COMPUTE: OP_COMPUTE,
}

#: Integer opcode -> OpKind.
KIND_FOR_OPCODE = {code: kind for kind, code in OPCODES.items()}


class CompiledTrace:
    """Struct-of-arrays form of one program-order trace."""

    __slots__ = ("ops", "length", "kinds", "addresses", "sizes", "cycles",
                 "instr_weights", "is_memory")

    def __init__(self, ops: Sequence[MemOp]) -> None:
        self.ops: List[MemOp] = list(ops)
        self.length = len(self.ops)
        self.kinds: List[int] = [OPCODES[op.kind] for op in self.ops]
        self.addresses: List[int] = [op.address for op in self.ops]
        self.sizes: List[int] = [op.size for op in self.ops]
        self.cycles: List[int] = [op.cycles for op in self.ops]
        self.is_memory: List[bool] = [op.kind.is_memory for op in self.ops]
        self.instr_weights: List[int] = [
            op.cycles if (not op.kind.is_memory and op.kind is OpKind.COMPUTE)
            else 1
            for op in self.ops
        ]

    def __len__(self) -> int:
        return self.length

    def view(self, index: int) -> MemOp:
        """The authored :class:`MemOp` at ``index`` (shared object)."""
        return self.ops[index]
