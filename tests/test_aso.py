"""Directed tests for the ASO (Atomic Sequence Ordering) baseline."""

import pytest

from repro.config import ConsistencyModel, SpeculationConfig, SpeculationMode
from repro.cpu.store_buffer import FIFOStoreBuffer
from repro.errors import ConfigurationError
from repro.trace.ops import compute, load, store
from tests.conftest import aso_config, block_addr, make_system, run_ops, run_system, tiny_config

A = block_addr(1000)
B = block_addr(2000)
SHARED = block_addr(500)


def single_core(ops, config):
    result = run_ops([ops, [compute(1)]], config)
    return result, result.core_stats[0]


class TestASOController:
    def test_requires_sc(self):
        spec = SpeculationConfig(mode=SpeculationMode.ASO)
        config = tiny_config(ConsistencyModel.RMO, spec)
        with pytest.raises(ConfigurationError):
            make_system([[compute(1)], [compute(1)]], config)

    def test_uses_scalable_store_buffer(self):
        """ASO's SSB is the 256-entry word FIFO its config names."""
        system = make_system([[compute(1)], [compute(1)]], aso_config())
        sb = system.cores[0].controller.sb
        assert type(sb) is FIFOStoreBuffer
        assert sb.capacity == 256

    def test_speculates_on_sc_ordering_stalls(self):
        config = aso_config()
        result, stats = single_core([store(A), load(B), compute(3000)], config)
        assert stats.speculations >= 1
        assert stats.sb_drain == 0
        assert stats.commits >= 1

    def test_periodic_checkpoints_taken(self):
        config = aso_config(memory_latency=600, hop_latency=50)
        interval = config.speculation.aso_checkpoint_interval
        warm = [load(block_addr(5000 + i)) for i in range(3 * interval)]
        # Warm the blocks first so the speculative re-loads are fast hits and
        # many of them retire while the store miss is still outstanding.
        ops = warm + [compute(20_000), store(A)]
        ops += [load(block_addr(5000 + i)) for i in range(3 * interval)]
        ops.append(compute(5000))
        system = make_system([ops, [compute(1)]], config)
        controller = system.cores[0].controller
        max_ckpts = 0
        original = controller.process_op

        def wrapped(op, now):
            nonlocal max_ckpts
            out = original(op, now)
            max_ckpts = max(max_ckpts, controller.checkpoints_in_use)
            return out

        controller.process_op = wrapped
        run_system(system)
        assert max_ckpts >= 2

    def test_matches_invisifence_when_no_conflicts(self):
        from tests.conftest import selective_config
        ops = []
        for i in range(12):
            ops.extend([store(block_addr(4000 + i)), load(block_addr(6000 + i)),
                        compute(5)])
        aso, aso_stats = single_core(list(ops), aso_config())
        invisi, inv_stats = single_core(list(ops),
                                        selective_config(ConsistencyModel.SC))
        # Without violations the two proposals perform comparably.
        ratio = aso_stats.finish_time / inv_stats.finish_time
        assert 0.8 < ratio < 1.25

    def test_violation_rolls_back_less_work_than_single_checkpoint(self):
        """ASO's periodic checkpoints bound the work lost to a violation."""
        from tests.conftest import selective_config

        def ops_for_run():
            core0 = [store(A)]
            core0 += [load(block_addr(13_000 + i)) for i in range(40)]
            core0 += [load(SHARED)]
            core0 += [compute(40)] * 10
            core1 = [compute(2500), store(SHARED), compute(10)]
            return [core0, core1]

        aso = run_ops(ops_for_run(), aso_config(memory_latency=600, hop_latency=50))
        invisi = run_ops(ops_for_run(),
                         selective_config(ConsistencyModel.SC, memory_latency=600,
                                          hop_latency=50))
        if aso.core_stats[0].aborts and invisi.core_stats[0].aborts:
            assert (aso.core_stats[0].replayed_ops
                    <= invisi.core_stats[0].replayed_ops)

    def test_accounting_identity(self):
        config = aso_config(memory_latency=600, hop_latency=50, num_cores=2)
        core0 = [store(A), load(SHARED)] + [compute(50)] * 10
        core1 = [compute(300), store(SHARED)]
        result = run_ops([core0, core1], config)
        for stats in result.core_stats:
            assert stats.total_accounted() == stats.finish_time
