"""Tests for repro.trace (ops and containers)."""

import dataclasses
import pickle

import pytest

from repro.errors import TraceError
from repro.trace.ops import MemOp, OpKind, atomic, compute, fence, load, store
from repro.trace.trace import MultiThreadedTrace, Trace


class TestOps:
    def test_constructors(self):
        assert load(64).kind is OpKind.LOAD
        assert store(64).kind is OpKind.STORE
        assert atomic(64).kind is OpKind.ATOMIC
        assert fence().kind is OpKind.FENCE
        assert compute(5).kind is OpKind.COMPUTE

    def test_memory_classification(self):
        assert load(0).is_memory
        assert store(0).is_memory
        assert atomic(0).is_memory
        assert not fence().is_memory
        assert not compute(1).is_memory

    def test_read_write_classification(self):
        assert load(0).reads and not load(0).writes
        assert store(0).writes and not store(0).reads
        assert atomic(0).reads and atomic(0).writes

    def test_labels(self):
        op = atomic(128, label="lock_acquire")
        assert op.label == "lock_acquire"
        assert "lock_acquire" in op.describe()

    def test_describe_mentions_address(self):
        assert "0x40" in load(64).describe()
        assert "fence" in fence().describe()
        assert "5 cycles" in compute(5).describe()

    def test_invalid_ops_rejected(self):
        with pytest.raises(TraceError):
            MemOp(OpKind.LOAD, address=-1)
        with pytest.raises(TraceError):
            MemOp(OpKind.STORE, address=0, size=0)
        with pytest.raises(TraceError):
            MemOp(OpKind.COMPUTE, cycles=0)

    @pytest.mark.parametrize("kind", [OpKind.LOAD, OpKind.STORE,
                                      OpKind.ATOMIC, OpKind.FENCE])
    def test_only_compute_bundles_weigh_more_than_one(self, kind):
        """``cycles`` is every op's instruction weight, 1 but for compute."""
        with pytest.raises(TraceError, match="cycles=2"):
            MemOp(kind, address=0, cycles=2)
        assert MemOp(kind, address=0).cycles == 1

    def test_is_memory_is_a_per_kind_constant(self):
        memory = {kind for kind in OpKind if kind.is_memory}
        assert memory == {OpKind.LOAD, OpKind.STORE, OpKind.ATOMIC}
        ops = [load(0x100), store(0x140, size=4), atomic(0x180), fence(),
               compute(7, label="spin")]
        assert all(op.is_memory is op.kind.is_memory for op in ops)

    def test_ops_are_immutable(self):
        op = load(64)
        with pytest.raises(Exception):
            op.address = 128


class TestSlottedOps:
    """The constructors build, without ``MemOp.__init__``, the same ops."""

    CASES = [
        (load(64), MemOp(OpKind.LOAD, address=64)),
        (load(72, 4, "shared"),
         MemOp(OpKind.LOAD, address=72, size=4, label="shared")),
        (store(0), MemOp(OpKind.STORE, address=0)),
        (store(128, 16, "private"),
         MemOp(OpKind.STORE, address=128, size=16, label="private")),
        (atomic(192, label="lock_acquire"),
         MemOp(OpKind.ATOMIC, address=192, label="lock_acquire")),
        (fence(), MemOp(OpKind.FENCE)),
        (fence("barrier"), MemOp(OpKind.FENCE, label="barrier")),
        (compute(1), MemOp(OpKind.COMPUTE)),
        (compute(7, "work"), MemOp(OpKind.COMPUTE, cycles=7, label="work")),
    ]

    @pytest.mark.parametrize("built, direct", CASES)
    def test_equal_and_hash_alike(self, built, direct):
        assert type(built) is MemOp
        assert built == direct
        assert hash(built) == hash(direct)
        assert dataclasses.astuple(built) == dataclasses.astuple(direct)

    def test_ops_have_no_instance_dict(self):
        assert not hasattr(load(64), "__dict__")

    @pytest.mark.parametrize("build, direct", [
        (lambda: load(-8), lambda: MemOp(OpKind.LOAD, address=-8)),
        (lambda: store(64, 0), lambda: MemOp(OpKind.STORE, address=64, size=0)),
        (lambda: atomic(64, -1),
         lambda: MemOp(OpKind.ATOMIC, address=64, size=-1)),
        (lambda: compute(0), lambda: MemOp(OpKind.COMPUTE, cycles=0)),
    ])
    def test_bad_inputs_raise_the_same_error(self, build, direct):
        with pytest.raises(TraceError) as built_error:
            build()
        with pytest.raises(TraceError) as direct_error:
            direct()
        assert str(built_error.value) == str(direct_error.value)

    @pytest.mark.parametrize("op", [load(64), fence(), compute(3)])
    def test_assignment_raises_frozen_instance_error(self, op):
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.address = 128
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.label = "x"

    @pytest.mark.parametrize("built, direct", CASES)
    def test_pickle_round_trip(self, built, direct):
        again = pickle.loads(pickle.dumps(built))
        assert again == direct and hash(again) == hash(direct)

    def test_replace_round_trip(self):
        op = store(64, label="shared")
        moved = dataclasses.replace(op, address=128)
        assert moved == store(128, label="shared")
        assert dataclasses.replace(moved, address=64) == op
        with pytest.raises(TraceError):
            dataclasses.replace(op, address=-1)


class TestTrace:
    def test_append_and_iterate(self):
        trace = Trace()
        trace.append(load(0))
        trace.extend([store(64), fence()])
        assert len(trace) == 3
        assert [op.kind for op in trace] == [OpKind.LOAD, OpKind.STORE, OpKind.FENCE]
        assert trace[1].kind is OpKind.STORE

    def test_ops_are_the_authored_ops(self):
        """The core reads these objects; the trace keeps no second copy."""
        ops = [load(0x100), store(0x140, size=4), atomic(0x180), fence(),
               compute(7, label="spin")]
        trace = Trace(ops)
        assert len(trace) == len(trace.ops) == 5
        assert list(trace.ops) == ops
        assert all(a is b for a, b in zip(trace.ops, ops))
        assert all(trace[index] is op for index, op in enumerate(ops))

    def test_count_by_kind(self):
        trace = Trace([load(0), load(64), store(0), fence(), compute(3)])
        assert trace.count(OpKind.LOAD) == 2
        assert trace.count(OpKind.STORE) == 1
        assert trace.count(OpKind.ATOMIC) == 0

    def test_instruction_weight_counts_compute_bundles(self):
        trace = Trace([load(0), compute(10), store(0)])
        assert trace.instruction_weight() == 12

    def test_footprint(self):
        trace = Trace([load(0), load(32), store(64), load(256)])
        assert trace.footprint(64) == 3

    def test_mix_sums_to_one(self):
        trace = Trace([load(0), store(0), fence(), compute(2)])
        mix = trace.mix()
        assert abs(sum(mix.values()) - 1.0) < 1e-9

    def test_empty_trace_mix(self):
        assert all(v == 0.0 for v in Trace().mix().values())


class TestMultiThreadedTrace:
    def test_requires_at_least_one_thread(self):
        with pytest.raises(TraceError):
            MultiThreadedTrace([])

    def test_thread_ids_assigned(self):
        bundle = MultiThreadedTrace([Trace([load(0)]), Trace([store(0)])])
        assert [t.thread_id for t in bundle] == [0, 1]
        assert bundle.num_threads == 2
        assert len(bundle) == 2

    def test_total_ops(self):
        bundle = MultiThreadedTrace([Trace([load(0)] * 3), Trace([store(0)] * 2)])
        assert bundle.total_ops() == 5

    def test_shared_blocks(self):
        shared = 128
        t0 = Trace([load(shared), load(0)])
        t1 = Trace([store(shared), load(64 * 100)])
        bundle = MultiThreadedTrace([t0, t1])
        assert bundle.shared_blocks(64) == 1
