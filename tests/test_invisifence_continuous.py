"""Directed tests for INVISIFENCE-CONTINUOUS."""

import pytest

from repro.config import ConsistencyModel, SpeculationConfig, SpeculationMode
from repro.errors import ConfigurationError
from repro.trace.ops import atomic, compute, fence, load, store
from tests.conftest import block_addr, continuous_config, make_system, run_ops, run_system, tiny_config

A = block_addr(1000)
B = block_addr(2000)
SHARED = block_addr(500)


def single_core(ops, config):
    result = run_ops([ops, [compute(1)]], config)
    return result, result.core_stats[0]


class TestConfiguration:
    def test_requires_two_checkpoints(self):
        spec = SpeculationConfig(mode=SpeculationMode.CONTINUOUS, num_checkpoints=1)
        config = tiny_config(ConsistencyModel.SC, spec)
        with pytest.raises(ConfigurationError):
            make_system([[compute(1)], [compute(1)]], config)


class TestChunking:
    def test_everything_executes_speculatively(self):
        config = continuous_config(min_chunk_size=20)
        ops = [load(block_addr(4000 + i)) for i in range(30)] + [compute(100)]
        result, stats = single_core(ops, config)
        assert stats.speculations >= 1
        # Nearly the whole execution is covered by speculation.
        assert stats.spec_cycles > 0.5 * stats.finish_time

    def test_chunks_commit_incrementally(self):
        config = continuous_config(min_chunk_size=10)
        ops = []
        for i in range(80):
            ops.append(load(block_addr(4000 + i)))
            ops.append(compute(2))
        result, stats = single_core(ops, config)
        # Many chunks committed, not just the final one at trace end.
        assert stats.commits >= 3

    def test_fences_and_atomics_never_stall(self):
        config = continuous_config(min_chunk_size=10)
        ops = []
        for i in range(10):
            ops.extend([store(block_addr(4000 + i)), fence(), atomic(block_addr(100)),
                        compute(5)])
        ops.append(compute(5000))
        result, stats = single_core(ops, config)
        assert stats.sb_drain == 0

    def test_at_most_two_checkpoints_in_flight(self):
        config = continuous_config(min_chunk_size=5)
        ops = [load(block_addr(4000 + i)) for i in range(60)]
        system = make_system([ops, [compute(1)]], config)
        controller = system.cores[0].controller
        max_seen = 0
        # The default (fast) engine enters the controller through its kernel.
        original = controller.process_op_fast

        def wrapped(op, now):
            nonlocal max_seen
            result = original(op, now)
            max_seen = max(max_seen, controller.checkpoints_in_use)
            return result

        controller.process_op_fast = wrapped
        run_system(system)
        assert 1 <= max_seen <= 2

    def test_continuous_beats_conventional_sc_on_sync_heavy_trace(self):
        ops = []
        for i in range(15):
            ops.extend([store(block_addr(4000 + i)), load(block_addr(6000 + i)),
                        atomic(block_addr(100)), compute(5)])
        conventional = run_ops([list(ops), [compute(1)]],
                               tiny_config(ConsistencyModel.SC))
        continuous = run_ops([list(ops), [compute(1)]], continuous_config())
        assert (continuous.core_stats[0].finish_time
                < conventional.core_stats[0].finish_time)


class TestViolations:
    def _conflict_ops(self):
        core0 = [load(SHARED)] + [compute(20)] * 40 + [load(B)]
        core1 = [compute(200), store(SHARED), compute(10)]
        return [core0, core1]

    def test_conflict_aborts_and_replays(self):
        config = continuous_config(num_cores=2, min_chunk_size=200,
                                   memory_latency=600, hop_latency=50)
        result = run_ops(self._conflict_ops(), config)
        stats = result.core_stats[0]
        assert stats.aborts >= 1
        assert stats.violation > 0

    def test_accounting_identity_despite_aborts(self):
        config = continuous_config(num_cores=2, min_chunk_size=200,
                                   memory_latency=600, hop_latency=50)
        result = run_ops(self._conflict_ops(), config)
        for stats in result.core_stats:
            assert stats.total_accounted() == stats.finish_time

    def test_conflict_on_active_chunk_only_keeps_older_chunk(self):
        # A conflict against a block touched only by the newest chunk should
        # not discard more work than that chunk.
        config = continuous_config(num_cores=2, min_chunk_size=10,
                                   memory_latency=600, hop_latency=50)
        core0 = [load(block_addr(4000 + i)) for i in range(30)]
        core0 += [load(SHARED)] + [compute(30)] * 20
        core1 = [compute(400), store(SHARED)]
        result = run_ops([core0, core1], config)
        stats = result.core_stats[0]
        if stats.aborts:
            assert stats.replayed_ops < 40


class TestTraceEnd:
    def test_final_chunk_commits_at_trace_end(self):
        config = continuous_config(min_chunk_size=1000)
        ops = [load(block_addr(4000 + i)) for i in range(10)]
        system = make_system([ops, [compute(1)]], config)
        result = run_system(system)
        stats = result.core_stats[0]
        assert stats.commits >= 1
        l1 = system.memory.l1(0)
        assert not any(block.speculative for block in l1.blocks())
