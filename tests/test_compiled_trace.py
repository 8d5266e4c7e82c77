"""Tests for the struct-of-arrays compiled trace form."""

from repro.trace import CompiledTrace, Trace
from repro.trace.compiled import (
    KIND_FOR_OPCODE,
    OP_ATOMIC,
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    OPCODES,
)
from repro.trace.ops import OpKind, atomic, compute, fence, load, store

OPS = [load(0x100), store(0x140, size=4), atomic(0x180),
       fence(), compute(7, label="spin")]


class TestCompilation:
    def test_arrays_mirror_the_authored_ops(self):
        compiled = CompiledTrace(OPS)
        assert len(compiled) == 5
        assert compiled.kinds == [OP_LOAD, OP_STORE, OP_ATOMIC,
                                  OP_FENCE, OP_COMPUTE]
        assert compiled.addresses == [0x100, 0x140, 0x180, 0, 0]
        assert compiled.sizes == [8, 4, 8, 8, 8]
        assert compiled.cycles == [1, 1, 1, 1, 7]
        assert compiled.is_memory == [True, True, True, False, False]

    def test_instruction_weights_match_core_accounting(self):
        """compute bundles weigh their cycle count; everything else is 1."""
        compiled = CompiledTrace(OPS)
        assert compiled.instr_weights == [1, 1, 1, 1, 7]

    def test_view_returns_the_authoring_memop(self):
        compiled = CompiledTrace(OPS)
        for index, op in enumerate(OPS):
            assert compiled.view(index) is op

    def test_opcode_tables_are_total_and_inverse(self):
        assert set(OPCODES) == set(OpKind)
        assert sorted(OPCODES.values()) == list(range(5))
        for kind, code in OPCODES.items():
            assert KIND_FOR_OPCODE[code] is kind


class TestTraceCaching:
    def test_compiled_is_cached(self):
        trace = Trace(OPS)
        assert trace.compiled() is trace.compiled()

    def test_append_invalidates_the_cache(self):
        trace = Trace(OPS)
        first = trace.compiled()
        trace.append(load(0x200))
        second = trace.compiled()
        assert second is not first
        assert len(second) == len(OPS) + 1
        assert second.addresses[-1] == 0x200

    def test_extend_invalidates_the_cache(self):
        trace = Trace(OPS)
        trace.compiled()
        trace.extend([store(0x240), fence()])
        assert len(trace.compiled()) == len(OPS) + 2
        assert trace.compiled().kinds[-1] == OP_FENCE

    def test_empty_trace_compiles(self):
        compiled = Trace().compiled()
        assert len(compiled) == 0
        assert compiled.kinds == []

