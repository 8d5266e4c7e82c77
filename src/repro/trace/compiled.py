"""Compiled trace: the execution-kernel form of one thread's operations.

The authoring and serialization API stays :class:`~repro.trace.ops.MemOp`
(a frozen dataclass); :class:`CompiledTrace` is the form the core reads,
built once per trace:

* ``ops``           -- the authored :class:`MemOp` objects (shared, not
  copied), which controllers receive; :meth:`view` hands back the one at
  any index, e.g. when mapping a rollback target back to the exact
  operation it re-executes,
* ``length``        -- the number of operations,
* ``instr_weights`` -- abstracted instruction count each op retires
  (``cycles`` for COMPUTE, 1 otherwise) -- precomputed because the core
  charges it on every single op.
"""

from __future__ import annotations

from typing import List, Sequence

from .ops import MemOp, OpKind


class CompiledTrace:
    """What the core reads of one program-order trace."""

    __slots__ = ("ops", "length", "instr_weights")

    def __init__(self, ops: Sequence[MemOp]) -> None:
        self.ops: List[MemOp] = list(ops)
        self.length = len(self.ops)
        compute = OpKind.COMPUTE
        self.instr_weights: List[int] = [
            op.cycles if op.kind is compute else 1 for op in self.ops
        ]

    def __len__(self) -> int:
        return self.length

    def view(self, index: int) -> MemOp:
        """The authored :class:`MemOp` at ``index`` (shared object)."""
        return self.ops[index]
