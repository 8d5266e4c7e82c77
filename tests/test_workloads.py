"""Tests for workload specifications, presets, and the trace generator."""

import pytest

from repro.errors import WorkloadError
from repro.scenarios import patterns
from repro.scenarios.registry import scenario_names
from repro.trace.ops import OpKind
from repro.workloads import generator
from repro.workloads.generator import BLOCK_BYTES, SyntheticWorkloadGenerator, generate_workload
from repro.workloads.presets import WORKLOAD_PRESETS, preset, workload_names
from repro.workloads.registry import build_trace
from repro.workloads.spec import MAX_SHARED_BLOCKS, WorkloadSpec


def small_spec(**overrides) -> WorkloadSpec:
    base = dict(name="unit", ops_per_thread=600, sync_interval=40.0,
                load_fraction=0.4, store_fraction=0.3, compute_fraction=0.3)
    base.update(overrides)
    return WorkloadSpec(**base)


#: (overrides, field the error names): each of these specs used to build,
#: then fail mid-generation or lay one region of the address map over the
#: next.
UNHONOURABLE = [
    (dict(blocks_per_lock=0), "blocks_per_lock"),
    (dict(migratory_blocks=0), "migratory_blocks"),
    (dict(compute_run_mean=0.0), "compute_run_mean"),
    (dict(compute_run_mean=0.5), "compute_run_mean"),
    (dict(critical_section_len=0.5), "critical_section_len"),
    (dict(store_burst_len=0.5), "store_burst_len"),
    (dict(num_locks=9_001), "num_locks"),
    (dict(num_locks=5_000, blocks_per_lock=9), "num_locks x blocks_per_lock"),
    (dict(atomic_counter_blocks=10_001), "atomic_counter_blocks"),
    (dict(migratory_blocks=40_001), "migratory_blocks"),
    (dict(shared_blocks=100_001), "shared_blocks"),
    (dict(private_blocks=1_000_001), "private_blocks"),
]


class TestWorkloadSpec:
    def test_valid_spec(self):
        spec = small_spec()
        assert spec.ops_per_thread == 600

    def test_mix_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            small_spec(load_fraction=0.5, store_fraction=0.5, compute_fraction=0.5)

    def test_negative_fraction_rejected(self):
        with pytest.raises(WorkloadError):
            small_spec(load_fraction=-0.1, store_fraction=0.6, compute_fraction=0.5)

    def test_bad_shared_fraction_rejected(self):
        with pytest.raises(WorkloadError):
            small_spec(shared_fraction=1.5)

    def test_bad_locality_rejected(self):
        with pytest.raises(WorkloadError):
            small_spec(locality=-0.2)

    def test_bad_lock_affinity_rejected(self):
        with pytest.raises(WorkloadError):
            small_spec(lock_affinity=2.0)

    @pytest.mark.parametrize("overrides, field", UNHONOURABLE,
                             ids=[",".join(f"{k}={v}" for k, v in overrides.items())
                                  for overrides, _ in UNHONOURABLE])
    def test_spec_generation_cannot_honour_rejected(self, overrides, field):
        with pytest.raises(WorkloadError, match=field):
            small_spec(**overrides)

    def test_largest_sizes_stay_inside_their_regions(self):
        spec = small_spec(num_locks=8_000, blocks_per_lock=5,
                          atomic_counter_blocks=10_000, migratory_blocks=40_000,
                          shared_blocks=100_000, private_blocks=1_000_000,
                          locality=0.0, sync_interval=8.0, lockfree_atomic_prob=0.1,
                          shared_fraction=0.5, migratory_fraction=0.3,
                          store_burst_prob=0.3, ops_per_thread=3_000)
        regions = {"lock_acquire": (1_000, 10_000), "lock_release": (1_000, 10_000),
                   "critical_read": (10_000, 50_000), "critical_write": (10_000, 50_000),
                   "lockfree_atomic": (50_000, 60_000),
                   "migratory_read": (60_000, 100_000),
                   "migratory_write": (60_000, 100_000),
                   "shared": (100_000, 200_000)}
        trace = generate_workload(spec, num_threads=2, seed=5)
        for thread in trace:
            private = 10_000_000 + thread.thread_id * 1_000_000
            for op in thread:
                if not op.is_memory or op.label == "burst":
                    continue
                low, high = regions.get(op.label, (private, private + 1_000_000))
                assert low <= op.address // BLOCK_BYTES < high, op
        seen = {op.label for thread in trace for op in thread}
        assert set(regions) <= seen

    def test_shared_heap_ends_where_pattern_regions_start(self):
        assert generator._SHARED_BASE + MAX_SHARED_BLOCKS == patterns._QUEUE_BASE

    def test_scaled_changes_only_length(self):
        spec = small_spec()
        scaled = spec.scaled(50)
        assert scaled.ops_per_thread == 50
        assert scaled.sync_interval == spec.sync_interval

    def test_describe(self):
        info = small_spec().describe()
        assert info["name"] == "unit"
        assert "sync interval" in info


class TestGenerator:
    def test_exact_length(self):
        trace = generate_workload(small_spec(), num_threads=3, seed=1)
        assert trace.num_threads == 3
        assert all(len(t) == 600 for t in trace)

    def test_deterministic_for_same_seed(self):
        a = generate_workload(small_spec(), num_threads=2, seed=5)
        b = generate_workload(small_spec(), num_threads=2, seed=5)
        for ta, tb in zip(a, b):
            assert list(ta) == list(tb)

    def test_different_seeds_differ(self):
        a = generate_workload(small_spec(), num_threads=1, seed=1)
        b = generate_workload(small_spec(), num_threads=1, seed=2)
        assert list(a[0]) != list(b[0])

    def test_threads_differ_from_each_other(self):
        trace = generate_workload(small_spec(), num_threads=2, seed=1)
        assert list(trace[0]) != list(trace[1])

    def test_contains_synchronisation(self):
        trace = generate_workload(small_spec(), num_threads=1, seed=3)
        thread = trace[0]
        assert thread.count(OpKind.ATOMIC) > 0
        assert thread.count(OpKind.FENCE) > 0

    def test_acquire_fence_follows_lock_atomic(self):
        trace = generate_workload(small_spec(), num_threads=1, seed=3)
        ops = list(trace[0])
        for i, op in enumerate(ops[:-1]):
            if op.label == "lock_acquire":
                assert ops[i + 1].kind is OpKind.FENCE

    def test_private_regions_disjoint_across_threads(self):
        trace = generate_workload(small_spec(shared_fraction=0.0,
                                             sync_interval=10_000.0),
                                  num_threads=2, seed=4)
        blocks = []
        for thread in trace:
            blocks.append({op.address // BLOCK_BYTES for op in thread if op.is_memory})
        assert not (blocks[0] & blocks[1])

    def test_locks_are_shared_across_threads(self):
        spec = small_spec(sync_interval=10.0, num_locks=2, lock_affinity=0.0)
        trace = generate_workload(spec, num_threads=2, seed=4)
        lock_blocks = []
        for thread in trace:
            lock_blocks.append({op.address // BLOCK_BYTES for op in thread
                                if op.label == "lock_acquire"})
        assert lock_blocks[0] & lock_blocks[1]

    def test_lock_affinity_partitions_locks(self):
        spec = small_spec(sync_interval=10.0, num_locks=32, lock_affinity=1.0)
        trace = generate_workload(spec, num_threads=2, seed=4)
        lock_blocks = []
        for thread in trace:
            lock_blocks.append({op.address // BLOCK_BYTES for op in thread
                                if op.label == "lock_acquire"})
        assert not (lock_blocks[0] & lock_blocks[1])

    def test_store_bursts_cover_whole_blocks(self):
        spec = small_spec(store_burst_prob=0.2, store_burst_len=3.0)
        trace = generate_workload(spec, num_threads=1, seed=9)
        burst_addresses = [op.address for op in trace[0] if op.label == "burst"]
        assert burst_addresses
        # Bursts write word-granularity addresses within consecutive blocks.
        assert any(a % BLOCK_BYTES != 0 for a in burst_addresses)

    def test_lockfree_atomics_emitted_when_enabled(self):
        spec = small_spec(lockfree_atomic_prob=0.1)
        trace = generate_workload(spec, num_threads=1, seed=2)
        assert any(op.label == "lockfree_atomic" for op in trace[0])

    def test_generate_thread_individually(self):
        gen = SyntheticWorkloadGenerator(small_spec(), num_threads=4, seed=1)
        whole = gen.generate()
        alone = gen.generate_thread(2)
        assert list(whole[2]) == list(alone)


class TestPresets:
    def test_seven_paper_workloads(self):
        assert len(workload_names()) == 7
        assert set(workload_names()) == set(WORKLOAD_PRESETS)

    def test_preset_lookup(self):
        assert preset("apache").name == "apache"

    def test_unknown_preset_rejected(self):
        with pytest.raises(WorkloadError):
            preset("doom")

    def test_web_servers_synchronise_most_often(self):
        assert preset("apache").sync_interval < preset("dss-db2").sync_interval
        assert preset("zeus").sync_interval < preset("barnes").sync_interval

    def test_scientific_workloads_have_high_locality(self):
        assert preset("barnes").locality > preset("oltp-oracle").locality
        assert preset("ocean").locality > preset("dss-db2").locality

    def test_all_presets_generate(self):
        for name in workload_names():
            trace = build_trace(name, num_threads=2, ops_per_thread=200, seed=1)
            assert trace.total_ops() == 400
            assert trace.name == name

    @pytest.mark.parametrize("name", [*workload_names(), *scenario_names()])
    def test_every_preset_and_scenario_builds(self, name):
        trace = build_trace(name, num_threads=4, ops_per_thread=300, seed=1)
        assert trace.total_ops() == 1_200

    def test_build_trace_accepts_spec_directly(self):
        trace = build_trace(small_spec(), num_threads=2, seed=1)
        assert trace.name == "unit"

    def test_build_trace_overrides_length(self):
        trace = build_trace("barnes", num_threads=2, ops_per_thread=123, seed=1)
        assert all(len(t) == 123 for t in trace)
