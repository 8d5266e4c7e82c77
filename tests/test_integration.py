"""End-to-end integration tests on generated workloads.

These run small multi-core simulations of the synthetic workloads across
the main machine configurations and check the cross-configuration
relationships the paper's evaluation rests on, plus global invariants
(coherence state consistency, accounting identities, determinism).
"""

import pytest

from repro.coherence.memory_system import MemorySystem
from repro.config import ConsistencyModel, ViolationPolicy
from repro.engine.simulator import simulate
from repro.engine.system import ENGINE_KINDS, build_system
from repro.engine.simulator import Simulator
from repro.workloads.registry import build_trace
from tests.conftest import (GRID_CORES, GRID_OPS, GRID_SEED, GRID_WORKLOADS,
                            continuous_config, grid_configs, selective_config,
                            tiny_config)
from tests.test_golden_observables import VARIANT_WORKLOAD, tiny_configs

CORES = 4
OPS = 1200


@pytest.fixture(scope="module")
def apache_trace():
    return build_trace("apache", num_threads=CORES, ops_per_thread=OPS, seed=11)


@pytest.fixture(scope="module")
def apache_results(apache_trace):
    """Run the main configurations once and share across tests."""
    configs = {
        "sc": tiny_config(ConsistencyModel.SC, num_cores=CORES),
        "tso": tiny_config(ConsistencyModel.TSO, num_cores=CORES),
        "rmo": tiny_config(ConsistencyModel.RMO, num_cores=CORES),
        "invisi_sc": selective_config(ConsistencyModel.SC, num_cores=CORES),
        "invisi_rmo": selective_config(ConsistencyModel.RMO, num_cores=CORES),
        "invisi_cont": continuous_config(num_cores=CORES, min_chunk_size=50),
        "invisi_cont_cov": continuous_config(
            num_cores=CORES, min_chunk_size=50,
            violation_policy=ViolationPolicy.COMMIT_ON_VIOLATE),
    }
    return {name: simulate(config, apache_trace) for name, config in configs.items()}


class TestCrossModelRelationships:
    def test_relaxed_models_not_slower_than_sc(self, apache_results):
        sc = apache_results["sc"].cycles_per_core()
        assert apache_results["tso"].cycles_per_core() <= sc
        assert apache_results["rmo"].cycles_per_core() <= sc * 1.01

    def test_ordering_stalls_shrink_with_relaxation(self, apache_results):
        sc = apache_results["sc"].ordering_stall_fraction()
        tso = apache_results["tso"].ordering_stall_fraction()
        rmo = apache_results["rmo"].ordering_stall_fraction()
        assert sc >= tso >= rmo * 0.9

    def test_invisifence_removes_most_ordering_stalls(self, apache_results):
        conventional = apache_results["sc"].aggregate()
        speculative = apache_results["invisi_sc"].aggregate()
        conventional_stalls = conventional.sb_full + conventional.sb_drain
        speculative_stalls = speculative.sb_full + speculative.sb_drain
        assert speculative_stalls < 0.35 * max(1, conventional_stalls)

    def test_invisifence_sc_competitive_with_conventional_rmo(self, apache_results):
        assert (apache_results["invisi_sc"].cycles_per_core()
                <= apache_results["rmo"].cycles_per_core() * 1.05)

    def test_invisi_rmo_at_least_as_fast_as_invisi_sc(self, apache_results):
        assert (apache_results["invisi_rmo"].cycles_per_core()
                <= apache_results["invisi_sc"].cycles_per_core() * 1.1)

    def test_continuous_speculates_nearly_always(self, apache_results):
        assert apache_results["invisi_cont"].speculation_fraction() > 0.8
        assert apache_results["invisi_sc"].speculation_fraction() < 0.9

    def test_cov_reduces_violation_cycles(self, apache_results):
        plain = apache_results["invisi_cont"].aggregate().violation
        cov = apache_results["invisi_cont_cov"].aggregate().violation
        assert cov <= plain

    def test_speculative_configs_commit(self, apache_results):
        for name in ("invisi_sc", "invisi_rmo", "invisi_cont", "invisi_cont_cov"):
            assert apache_results[name].aggregate().commits > 0


class TestGlobalInvariants:
    def test_accounting_identity_all_configs(self, apache_results):
        for name, result in apache_results.items():
            for stats in result.core_stats:
                assert stats.total_accounted() == stats.finish_time, name

    def test_coherence_invariants_after_full_run(self, apache_trace):
        system = build_system(selective_config(ConsistencyModel.SC, num_cores=CORES),
                              apache_trace)
        Simulator(system).run()
        system.memory.check_invariants()

    @pytest.mark.parametrize("engine", ENGINE_KINDS)
    def test_coherence_invariants_after_every_transaction(self, engine,
                                                          monkeypatch):
        """The engine grid and its tiny-cache variants, checked after each
        coherence transaction rather than only at the end of a run."""
        transaction = MemorySystem._transaction
        checked = 0

        def checking(memory, *args):
            nonlocal checked
            outcome = transaction(memory, *args)
            memory.check_invariants()
            checked += 1
            return outcome

        monkeypatch.setattr(MemorySystem, "_transaction", checking)
        configs = grid_configs()
        runs = [(workload, configs) for workload in GRID_WORKLOADS]
        runs.append((VARIANT_WORKLOAD, tiny_configs(configs)))
        for workload, named in runs:
            trace = build_trace(workload, num_threads=GRID_CORES,
                                ops_per_thread=GRID_OPS, seed=GRID_SEED)
            for config in named.values():
                simulate(config, trace, engine=engine)
        assert checked > 10_000

    def test_no_speculative_state_left_behind(self, apache_trace):
        for config in (selective_config(ConsistencyModel.SC, num_cores=CORES),
                       continuous_config(num_cores=CORES, min_chunk_size=50)):
            system = build_system(config, apache_trace)
            Simulator(system).run()
            for core in system.cores:
                l1 = system.memory.l1(core.core_id)
                assert not any(block.speculative for block in l1.blocks())
                assert core.controller.sb.is_empty(core.finish_time)

    def test_determinism_across_runs(self, apache_trace):
        config = selective_config(ConsistencyModel.SC, num_cores=CORES)
        first = simulate(config, apache_trace)
        second = simulate(config, apache_trace)
        assert first.runtime == second.runtime
        assert first.breakdown() == second.breakdown()

    def test_different_seeds_give_different_but_similar_runtimes(self):
        config = tiny_config(ConsistencyModel.SC, num_cores=CORES)
        runtimes = []
        for seed in (1, 2, 3):
            trace = build_trace("barnes", num_threads=CORES, ops_per_thread=600,
                                seed=seed)
            runtimes.append(simulate(config, trace).cycles_per_core())
        assert len(set(runtimes)) > 1
        assert max(runtimes) < 2.0 * min(runtimes)


class TestOtherWorkloads:
    @pytest.mark.parametrize("workload", ["zeus", "oltp-db2", "dss-db2", "ocean"])
    def test_workloads_run_under_speculation(self, workload):
        trace = build_trace(workload, num_threads=2, ops_per_thread=500, seed=3)
        config = selective_config(ConsistencyModel.SC, num_cores=2)
        result = simulate(config, trace)
        assert result.runtime > 0
        assert result.aggregate().commits >= 0
        for stats in result.core_stats:
            assert stats.total_accounted() == stats.finish_time
