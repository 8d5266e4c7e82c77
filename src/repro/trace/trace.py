"""Trace containers.

A :class:`Trace` is one thread's program-order operation sequence; a
:class:`MultiThreadedTrace` bundles one trace per core plus bookkeeping used
by the experiment drivers (workload name, generator seed).

Phase-structured traces (produced by the scenario engine) additionally
carry ``phases``: an ordered tuple of ``(name, ops_per_thread)`` pairs
describing how each thread's stream splits into consecutive phases.  Phase
boundaries are positional -- operation indices, identical across threads --
so the core model can attribute stall cycles to the phase that incurred
them without any per-op tagging.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import TraceError
from .ops import MemOp, OpKind

#: One phase of a phase-structured trace: (phase name, ops per thread).
PhaseMark = Tuple[str, int]


class Trace:
    """One thread's program-order sequence of operations."""

    def __init__(self, ops: Optional[Iterable[MemOp]] = None,
                 thread_id: int = 0) -> None:
        self._ops: List[MemOp] = list(ops) if ops is not None else []
        self.thread_id = thread_id

    def append(self, op: MemOp) -> None:
        self._ops.append(op)

    def extend(self, ops: Iterable[MemOp]) -> None:
        self._ops.extend(ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[MemOp]:
        return iter(self._ops)

    def __getitem__(self, index: int) -> MemOp:
        return self._ops[index]

    @property
    def ops(self) -> Sequence[MemOp]:
        return self._ops

    # -- summary statistics ------------------------------------------------

    def count(self, kind: OpKind) -> int:
        return sum(1 for op in self._ops if op.kind is kind)

    def instruction_weight(self) -> int:
        """Total abstracted instruction count (compute bundles weighted)."""
        return sum(op.cycles for op in self._ops)

    def footprint(self, block_bytes: int) -> int:
        """Number of distinct cache blocks touched by this trace."""
        blocks = set()
        for op in self._ops:
            if op.is_memory:
                blocks.add(op.address // block_bytes)
        return len(blocks)

    def mix(self) -> Dict[str, float]:
        """Fraction of operations of each kind (by op count)."""
        if not self._ops:
            return {kind.value: 0.0 for kind in OpKind}
        total = len(self._ops)
        return {
            kind.value: self.count(kind) / total for kind in OpKind
        }


class MultiThreadedTrace:
    """A bundle of per-core traces produced by a workload generator."""

    def __init__(self, traces: Sequence[Trace], name: str = "anonymous",
                 seed: Optional[int] = None,
                 phases: Optional[Sequence[PhaseMark]] = None) -> None:
        if not traces:
            raise TraceError("a multi-threaded trace needs at least one thread")
        self._traces = list(traces)
        for index, trace in enumerate(self._traces):
            trace.thread_id = index
        self.name = name
        self.seed = seed
        self.phases: Optional[Tuple[PhaseMark, ...]] = None
        if phases is not None:
            marks = tuple((str(n), int(count)) for n, count in phases)
            if not marks:
                raise TraceError("a phase-structured trace needs at least one phase")
            if any(count <= 0 for _, count in marks):
                raise TraceError("phase lengths must be positive")
            total = sum(count for _, count in marks)
            for trace in self._traces:
                if len(trace) != total:
                    raise TraceError(
                        f"thread {trace.thread_id} has {len(trace)} ops but the "
                        f"phase layout describes {total}"
                    )
            self.phases = marks

    @property
    def phase_names(self) -> Optional[Tuple[str, ...]]:
        if self.phases is None:
            return None
        return tuple(name for name, _ in self.phases)

    @property
    def phase_bounds(self) -> Optional[Tuple[int, ...]]:
        """Cumulative per-thread end indices of each phase."""
        if self.phases is None:
            return None
        bounds: List[int] = []
        total = 0
        for _, count in self.phases:
            total += count
            bounds.append(total)
        return tuple(bounds)

    @property
    def num_threads(self) -> int:
        return len(self._traces)

    def __len__(self) -> int:
        return self.num_threads

    def __iter__(self) -> Iterator[Trace]:
        return iter(self._traces)

    def __getitem__(self, thread: int) -> Trace:
        return self._traces[thread]

    @property
    def traces(self) -> Sequence[Trace]:
        return self._traces

    def total_ops(self) -> int:
        return sum(len(t) for t in self._traces)

    def shared_blocks(self, block_bytes: int) -> int:
        """Number of blocks touched by more than one thread."""
        seen: Dict[int, int] = {}
        for trace in self._traces:
            thread_blocks = set()
            for op in trace:
                if op.is_memory:
                    thread_blocks.add(op.address // block_bytes)
            for block in thread_blocks:
                seen[block] = seen.get(block, 0) + 1
        return sum(1 for count in seen.values() if count > 1)
