"""Tests for the full-map directory and the shared L2."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.directory import Directory, DirectoryEntry
from repro.coherence.l2 import L2Cache
from repro.config import CacheConfig
from repro.errors import CoherenceError


class TestDirectoryEntry:
    def test_initial_state_uncached(self):
        entry = DirectoryEntry(address=0)
        assert entry.owner is None
        assert entry.sharer_ids() == []

    def test_shared_state(self):
        entry = DirectoryEntry(address=0, sharers=1 << 1 | 1 << 2)
        assert entry.owner is None
        assert entry.sharer_ids() == [1, 2]

    def test_modified_state(self):
        entry = DirectoryEntry(address=0, owner=3)
        assert entry.owner == 3
        assert entry.sharer_ids() == []

    def test_sharer_ids_read_the_presence_bits_in_core_order(self):
        entry = DirectoryEntry(address=0, sharers=1 << 63 | 1 << 31 | 1 << 5 | 1)
        assert entry.sharer_ids() == [0, 5, 31, 63]

    def test_invariant_check(self):
        entry = DirectoryEntry(address=0, owner=1, sharers=1 << 2)
        with pytest.raises(CoherenceError, match=r"sharers \[2\]"):
            entry.check()


class TestDirectory:
    def test_entry_created_on_demand(self):
        directory = Directory(block_bytes=64)
        assert directory.peek(0) is None
        entry = directory.entry(0)
        assert entry.address == 0
        assert directory.peek(0) is entry
        assert len(directory) == 1

    def test_entry_is_stable(self):
        directory = Directory(block_bytes=64)
        assert directory.entry(128) is directory.entry(128)

    def test_check_invariants_scans_all(self):
        directory = Directory(block_bytes=64)
        directory.entry(0).sharers |= 1 << 1
        directory.entry(64).owner = 2
        directory.check_invariants()
        directory.entry(128).owner = 1
        directory.entry(128).sharers |= 1 << 3
        with pytest.raises(CoherenceError):
            directory.check_invariants()

    def test_iteration(self):
        directory = Directory(block_bytes=64)
        for i in range(5):
            directory.entry(i * 64)
        assert len(list(directory)) == 5


class TestL2Cache:
    def _l2(self, blocks: int = 16, assoc: int = 4) -> L2Cache:
        return L2Cache(CacheConfig(size_bytes=blocks * 64, associativity=assoc,
                                   block_bytes=64, hit_latency=10))

    def test_miss_then_hit(self):
        l2 = self._l2()
        assert not l2.contains(0)
        l2.install(0)
        assert l2.contains(0)

    def test_eviction_bounded_by_capacity(self):
        l2 = self._l2(blocks=8)
        for i in range(32):
            l2.install(i * 64)
        assert len(l2) <= 8

    def test_full_nominal_capacity_is_usable(self):
        l2 = self._l2(blocks=16, assoc=1)
        for i in range(16):
            l2.install(i * 64)
        assert len(l2) == 16
        for i in range(16):
            assert l2.contains(i * 64)

    @pytest.mark.parametrize("blocks,assoc", [
        (16, 1), (16, 2), (16, 4), (16, 16), (64, 8),
    ])
    def test_every_set_holds_its_associativity(self, blocks, assoc):
        l2 = self._l2(blocks=blocks, assoc=assoc)
        for i in range(blocks):
            l2.install(i * 64)
        assert len(l2) == blocks
        # Block ``blocks`` maps to set 0 and displaces only block 0, the
        # set's least recently installed one.
        l2.install(blocks * 64)
        assert len(l2) == blocks
        assert not l2.contains(0)
        assert all(l2.contains(i * 64) for i in range(1, blocks + 1))

    def test_a_full_set_leaves_the_other_sets_alone(self):
        l2 = self._l2(blocks=16, assoc=4)  # four sets
        for i in (1, 2, 3):
            l2.install(i * 64)
        # Ten blocks of set 0 churn through its four ways.
        for n in range(10):
            l2.install(n * 4 * 64)
        assert [n for n in range(10) if l2.contains(n * 4 * 64)] == [6, 7, 8, 9]
        assert all(l2.contains(i * 64) for i in (1, 2, 3))
        assert len(l2) == 7

    def test_lookup_never_reorders_a_set(self):
        l2 = self._l2(blocks=2, assoc=2)  # one set of two ways
        l2.install(0)
        l2.install(64)
        assert l2.contains(0)  # a hit does not refresh block 0
        l2.install(128)
        assert not l2.contains(0)
        assert l2.contains(64) and l2.contains(128)

    def test_reinstall_moves_the_block_to_most_recent(self):
        l2 = self._l2(blocks=2, assoc=2)
        l2.install(0)
        l2.install(64)
        l2.install(0)  # block 0 is now the most recently installed
        assert len(l2) == 2
        l2.install(128)
        assert l2.contains(0) and l2.contains(128)
        assert not l2.contains(64)

    def test_full_set_evicts_the_least_recently_installed(self):
        l2 = self._l2(blocks=4, assoc=4)
        for n in range(4):
            l2.install(n * 64)
        for n in range(4, 8):
            l2.install(n * 64)
            assert not l2.contains((n - 4) * 64)
            assert all(l2.contains(m * 64) for m in range(n - 3, n + 1))

    def test_set_index_follows_the_block_size(self):
        l2 = L2Cache(CacheConfig(size_bytes=4 * 128, associativity=1,
                                 block_bytes=128, hit_latency=10))
        for n in range(4):
            l2.install(n * 128)  # one block in each of the four sets
        assert len(l2) == 4
        l2.install(4 * 128)  # back in set 0
        assert not l2.contains(0)
        assert all(l2.contains(n * 128) for n in range(1, 5))


class L2Model:
    """The L2 as DESIGN section 9 describes it, one recency list per set.

    Block ``n`` lands in set ``n % num_sets``.  Each set lists its blocks
    least recently installed first; an install moves its block to the
    end, a lookup moves nothing, and a full set drops its first block.
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets = {}

    def _ways(self, addr: int) -> list:
        return self.sets.setdefault(addr // 64 % self.num_sets, [])

    def install(self, addr: int) -> None:
        ways = self._ways(addr)
        if addr in ways:
            ways.remove(addr)
        elif len(ways) == self.assoc:
            ways.pop(0)
        ways.append(addr)

    def contains(self, addr: int) -> bool:
        return addr in self._ways(addr)

    def __len__(self) -> int:
        return sum(len(ways) for ways in self.sets.values())


l2_steps = st.lists(
    st.tuples(st.sampled_from(("install", "contains")), st.integers(0, 47)),
    min_size=30, max_size=120)


class TestL2AgainstRecencyModel:
    @given(l2_steps)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_set_recency_lists(self, steps):
        l2 = L2Cache(CacheConfig(size_bytes=16 * 64, associativity=4,
                                 block_bytes=64, hit_latency=10))
        model = L2Model(num_sets=4, assoc=4)
        touched = set()
        for op, index in steps:
            addr = index * 64
            touched.add(addr)
            if op == "contains":
                assert l2.contains(addr) == model.contains(addr)
            else:
                l2.install(addr)
                model.install(addr)
            assert len(l2) == len(model)
            for seen in touched:
                assert l2.contains(seen) == model.contains(seen), hex(seen)


class Test64CoreDirectory:
    """Directory sharer-set and flash-op behaviour at the 8x8 machine."""

    def _system(self):
        from repro.coherence.memory_system import MemorySystem
        from repro.config import small_config

        config = small_config(num_cores=64)
        assert config.interconnect.num_nodes == 64
        return MemorySystem(config), config

    def test_all_64_cores_share_one_block(self):
        memory, config = self._system()
        for core in range(64):
            memory.access(core, 0x1000, is_write=False, now=core * 1000)
        entry = memory.directory.peek(0x1000)
        assert entry is not None
        assert entry.owner is None
        assert entry.sharer_ids() == list(range(64))
        memory.check_invariants()

    def test_write_invalidates_63_sharers(self):
        memory, config = self._system()
        for core in range(64):
            memory.access(core, 0x1000, is_write=False, now=core * 1000)
        memory.access(7, 0x1000, is_write=True, now=200_000)
        entry = memory.directory.peek(0x1000)
        assert entry.owner == 7
        assert entry.sharer_ids() == []
        for core in range(64):
            if core != 7:
                assert not memory.contains(core, 0x1000)
        memory.check_invariants()

    def test_write_invalidates_sharers_in_ascending_core_order(self):
        from repro.coherence.memory_system import MemorySystem
        from repro.obs import TraceRecorder
        from tests.conftest import dir_transactions

        _, config = self._system()
        recorder = TraceRecorder()
        memory = MemorySystem(config, recorder=recorder)
        conflicts = []

        class Listener:
            def __init__(self, core):
                self.core = core

            def on_external_conflict(self, block_addr, is_write, arrival_time):
                conflicts.append(self.core)
                return 0

            def forced_commit(self, now):
                return now

        # Speculative reads, so each sharer's controller hears of its
        # invalidation; the reads arrive out of core order.
        sharers = [0, 5, 31, 63]
        for i, core in enumerate((63, 5, 31, 0)):
            memory.register_listener(core, Listener(core))
            memory.access(core, 0x1000, is_write=False, now=i * 1000,
                          spec_checkpoint=1)
        assert memory.directory.peek(0x1000).sharer_ids() == sharers
        memory.access(7, 0x1000, is_write=True, now=100_000)
        assert conflicts == sharers
        assert dir_transactions(recorder)[-1]["invalidated"] == sharers
        assert not any(memory.contains(core, 0x1000) for core in sharers)
        assert memory.directory.peek(0x1000).owner == 7
        memory.check_invariants()

    def test_invalidation_latency_grows_with_sharer_distance(self):
        memory, config = self._system()
        hop = config.interconnect.hop_latency
        lead = config.store_prefetch_lead
        # Both blocks live at home node 0, where the writer (core 0) sits.
        # Near: the sharers are cores 1 and 8, one hop from node 0.
        memory.access(1, 0x1000, is_write=False, now=0)
        memory.access(8, 0x1000, is_write=False, now=1000)
        near = memory.access(0, 0x1000, is_write=True, now=10_000)
        assert near.completion_time == 10_000 + 2 * hop - lead
        # Far: every other core shares; (4, 4) is eight hops away.
        for core in range(1, 64):
            memory.access(core, 0x2000, is_write=False, now=20_000 + core * 1000)
        far = memory.access(0, 0x2000, is_write=True, now=200_000)
        assert far.completion_time == 200_000 + 2 * 8 * hop - lead

    def test_flash_ops_scale_to_64_cores(self):
        memory, config = self._system()
        # Every core writes its own private block speculatively, and reads
        # one widely shared block speculatively.
        for core in range(64):
            memory.access(core, 0x100000 + core * 64, is_write=True,
                          now=core * 1000, spec_checkpoint=1)
            memory.access(core, 0x2000, is_write=False,
                          now=core * 1000 + 500, spec_checkpoint=1)
        # Abort half the machine: speculatively written blocks invalidate.
        for core in range(0, 64, 2):
            dropped = memory.l1(core).flash_invalidate_spec_written()
            assert dropped == [0x100000 + core * 64]
            assert not memory.contains(core, 0x100000 + core * 64)
        # Commit the other half: spec bits clear, blocks stay resident.
        for core in range(1, 64, 2):
            cleared = memory.l1(core).flash_clear_spec_bits()
            assert cleared >= 1
            assert memory.contains(core, 0x100000 + core * 64)
        memory.check_invariants()
