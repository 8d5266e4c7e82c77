"""Tests for the compiled trace form."""

from repro.trace import CompiledTrace, Trace
from repro.trace.ops import OpKind, atomic, compute, fence, load, store

OPS = [load(0x100), store(0x140, size=4), atomic(0x180),
       fence(), compute(7, label="spin")]


class TestCompilation:
    def test_ops_are_the_authored_ops(self):
        compiled = CompiledTrace(OPS)
        assert len(compiled) == compiled.length == 5
        assert compiled.ops == OPS
        assert all(a is b for a, b in zip(compiled.ops, OPS))

    def test_instruction_weights_match_core_accounting(self):
        """compute bundles weigh their cycle count; everything else is 1."""
        compiled = CompiledTrace(OPS)
        assert compiled.instr_weights == [1, 1, 1, 1, 7]

    def test_view_returns_the_authoring_memop(self):
        compiled = CompiledTrace(OPS)
        for index, op in enumerate(OPS):
            assert compiled.view(index) is op

    def test_is_memory_is_a_per_kind_constant(self):
        memory = {kind for kind in OpKind if kind.is_memory}
        assert memory == {OpKind.LOAD, OpKind.STORE, OpKind.ATOMIC}
        assert all(op.is_memory is op.kind.is_memory for op in OPS)


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
        assert second.ops[-1].address == 0x200

    def test_extend_invalidates_the_cache(self):
        trace = Trace(OPS)
        trace.compiled()
        trace.extend([store(0x240), fence()])
        assert len(trace.compiled()) == len(OPS) + 2
        assert trace.compiled().ops[-1].kind is OpKind.FENCE
        assert trace.compiled().instr_weights[-2:] == [1, 1]

    def test_empty_trace_compiles(self):
        compiled = Trace().compiled()
        assert len(compiled) == 0
        assert compiled.ops == [] and compiled.instr_weights == []

