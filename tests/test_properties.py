"""Property-based tests (hypothesis) for the core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, ConsistencyModel, StoreBufferConfig, StoreBufferKind
from repro.cpu.stats import CoreStats, STALL_CLASSES
from repro.cpu.store_buffer import CoalescingStoreBuffer, FIFOStoreBuffer
from repro.engine.events import EventQueue
from repro.engine.simulator import simulate
from repro.memory.address import block_mask
from repro.memory.block import CoherenceState
from repro.memory.cache import CacheArray
from repro.workloads.generator import generate_workload
from repro.workloads.spec import WorkloadSpec
from tests.conftest import make_trace, tiny_config
from repro.trace.ops import compute, load, store


addresses = st.integers(min_value=0, max_value=2 ** 40)
block_sizes = st.sampled_from([32, 64, 128, 256])


class TestAddressProperties:
    @given(addresses, block_sizes)
    def test_block_address_is_idempotent_and_aligned(self, addr, block):
        mask = block_mask(block)
        aligned = addr & mask
        assert aligned == addr - addr % block
        assert aligned & mask == aligned


class TestCacheArrayProperties:
    @given(st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_capacity_and_uniqueness(self, block_indices):
        cache = CacheArray(CacheConfig(size_bytes=16 * 64, associativity=2,
                                       block_bytes=64, hit_latency=1))
        num_sets = cache.config.num_sets
        for index in block_indices:
            addr = index * 64
            same_set = [b for b in cache.blocks() if b.address // 64 % num_sets
                        == index % num_sets]
            full = len(same_set) == 2 and not cache.contains(addr)
            block, victim = cache.install(addr, CoherenceState.SHARED)
            assert block is not None and cache.contains(addr)
            if full:
                # The LRU way of the set, now gone.
                assert victim is min(same_set, key=lambda b: b.last_use)
                assert not cache.contains(victim.address)
            else:
                assert victim is None
        assert len(cache) <= 16
        seen = [b.address for b in cache.blocks()]
        assert len(seen) == len(set(seen))

    @given(st.lists(st.tuples(st.integers(0, 60), st.booleans()), min_size=1,
                    max_size=80))
    @settings(max_examples=50)
    def test_flash_operations_leave_no_spec_bits(self, accesses):
        cache = CacheArray(CacheConfig(size_bytes=32 * 64, associativity=4,
                                       block_bytes=64, hit_latency=1))
        num_sets = cache.config.num_sets
        for index, is_write in accesses:
            addr = index * 64
            state = CoherenceState.MODIFIED if is_write else CoherenceState.SHARED
            same_set = [b for b in cache.blocks() if b.address // 64 % num_sets
                        == index % num_sets]
            full = len(same_set) == 4 and not cache.contains(addr)
            candidates = [b for b in same_set if not b.speculative]
            block, victim = cache.install(addr, state, dirty=is_write)
            if block is None:
                # Every way is speculative: nothing was evicted or installed.
                assert full and not candidates
                assert victim is None and not cache.contains(addr)
                cache.flash_clear_spec_bits()
                candidates = same_set
                block, victim = cache.install(addr, state, dirty=is_write)
            assert block is not None
            if full:
                # The LRU way among the non-speculative ones.
                assert victim is min(candidates, key=lambda b: b.last_use)
            else:
                assert victim is None
            if is_write:
                block.mark_spec_written(1)
            else:
                block.mark_spec_read(1)
        cache.flash_invalidate_spec_written()
        assert not any(b.speculative for b in cache.blocks())
        # No speculatively written block survived.
        assert all(not b.dirty or b.spec_written is None for b in cache.blocks())


store_ops = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 500), st.booleans()),
    min_size=1, max_size=60,
)


class TestStoreBufferProperties:
    @given(store_ops)
    @settings(max_examples=50)
    def test_fifo_release_monotonic_and_bounded(self, ops):
        sb = FIFOStoreBuffer(StoreBufferConfig(StoreBufferKind.FIFO_WORD, 64, 8))
        releases = []
        now = 0
        for index, latency, spec in ops:
            if sb.is_full(now):
                now = sb.next_free_slot_time(now)
            releases.append(sb.add_store(index * 8, now, now + latency,
                                         checkpoint_id=1 if spec else None))
            assert sb.occupancy(now) <= sb.capacity
        assert releases == sorted(releases)
        assert sb.drain_time(now) >= max(releases)
        assert sb.drain_time(now) == max(sb.drain_time(now), now)

    @given(store_ops)
    @settings(max_examples=50)
    def test_coalescing_capacity_and_nonnegative_queries(self, ops):
        sb = CoalescingStoreBuffer(
            StoreBufferConfig(StoreBufferKind.COALESCING_BLOCK, 8, 64))
        now = 0
        for index, latency, spec in ops:
            if sb.is_full(now):
                now = sb.next_free_slot_time(now)
            sb.add_store(index * 64, now, now + latency,
                         checkpoint_id=1 if spec else None)
            assert sb.occupancy(now) <= sb.capacity
            assert sb.drain_time(now) >= now
            assert sb.next_free_slot_time(now) >= now
        # Queries never mutate state: repeated queries agree.
        assert sb.drain_time(now) == sb.drain_time(now)
        dropped = sb.flash_invalidate_speculative(now)
        assert dropped >= 0
        assert all(not e.speculative for e in sb.entries(now))


class TestEventQueueProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                    max_size=200))
    @settings(max_examples=50)
    def test_events_fire_in_nondecreasing_time_order(self, times):
        queue = EventQueue()
        fired = []
        for t in times:
            queue.schedule(t, lambda now, arg: fired.append(now))
        queue.run()
        assert fired == sorted(times)


class TestStatsProperties:
    @given(st.lists(st.tuples(st.sampled_from(STALL_CLASSES),
                              st.integers(0, 1000)), max_size=50),
           st.integers(0, 100_000))
    def test_rollback_conserves_totals(self, additions, elapsed):
        stats = CoreStats()
        snapshot = stats.snapshot()
        for category, cycles in additions:
            stats.add_cycles(category, cycles)
        before_violation = stats.violation
        stats.rollback_to(snapshot, elapsed)
        assert stats.violation == before_violation + elapsed
        for category in STALL_CLASSES:
            assert getattr(stats, category) == snapshot[category]


class TestWorkloadProperties:
    @given(st.integers(0, 2 ** 20), st.integers(1, 4),
           st.floats(0.0, 1.0), st.floats(0.05, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_generator_determinism_and_length(self, seed, threads, shared, locality):
        spec = WorkloadSpec(name="prop", ops_per_thread=150,
                            shared_fraction=shared, locality=locality,
                            sync_interval=30.0)
        a = generate_workload(spec, num_threads=threads, seed=seed)
        b = generate_workload(spec, num_threads=threads, seed=seed)
        assert a.total_ops() == threads * 150
        for ta, tb in zip(a, b):
            assert list(ta) == list(tb)


class TestSimulationProperties:
    @given(st.lists(st.tuples(st.integers(0, 30), st.sampled_from(["load", "store", "compute"])),
                    min_size=1, max_size=60),
           st.sampled_from(list(ConsistencyModel)))
    @settings(max_examples=20, deadline=None)
    def test_accounting_identity_for_random_traces(self, ops_desc, model):
        ops = []
        for index, kind in ops_desc:
            addr = (1000 + index) * 64
            if kind == "load":
                ops.append(load(addr))
            elif kind == "store":
                ops.append(store(addr))
            else:
                ops.append(compute(1 + index % 5))
        trace = make_trace([ops, [compute(1)]])
        result = simulate(tiny_config(model), trace)
        for stats in result.core_stats:
            assert stats.total_accounted() == stats.finish_time
        assert result.runtime == max(s.finish_time for s in result.core_stats)
