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
    def _l2(self, blocks: int = 16) -> L2Cache:
        return L2Cache(CacheConfig(size_bytes=blocks * 64, associativity=4,
                                   block_bytes=64, hit_latency=10))

    def test_miss_then_hit(self):
        l2 = self._l2()
        assert not l2.probe(0)
        l2.install(0)
        assert l2.probe(0)
        assert l2.hits == 1 and l2.misses == 1

    def test_install_dirty(self):
        l2 = self._l2()
        l2.install_dirty(64)
        assert l2.contains(64)

    def test_eviction_bounded_by_capacity(self):
        l2 = self._l2(blocks=8)
        for i in range(32):
            l2.install(i * 64)
        assert len(l2) <= 8

    def test_dirty_evictions_counted(self):
        l2 = self._l2(blocks=4)
        for i in range(12):
            l2.install_dirty(i * 64)
        assert l2.writebacks > 0


class TestBankedL2:
    def _banked(self, blocks: int = 16, banks: int = 4) -> L2Cache:
        return L2Cache(CacheConfig(size_bytes=blocks * 64, associativity=1,
                                   block_bytes=64, hit_latency=10),
                       banks=banks)

    def test_single_bank_matches_monolithic(self):
        mono = L2Cache(CacheConfig(size_bytes=8 * 64, associativity=4,
                                   block_bytes=64, hit_latency=10))
        assert mono.num_banks == 1
        banked = self._banked(blocks=8, banks=1)
        for i in range(32):
            mono.install(i * 64)
            banked.install(i * 64)
        assert len(mono) <= 8 and len(banked) <= 8

    def test_blocks_interleave_across_banks(self):
        l2 = self._banked(blocks=16, banks=4)
        for i in range(4):
            assert l2.bank_of(i * 64) == i
        assert l2.bank_of(4 * 64) == 0

    def test_bank_capacity_is_partitioned(self):
        # 16 direct-mapped blocks over 4 banks: 4 blocks per bank.  Fill
        # one bank's worth of conflicting addresses; other banks untouched.
        l2 = self._banked(blocks=16, banks=4)
        for i in range(12):
            l2.install(i * 4 * 64)  # all map to bank 0
        assert len(l2) <= 4
        l2.install(64)  # bank 1
        assert l2.contains(64)

    def test_total_capacity_respected(self):
        l2 = self._banked(blocks=16, banks=4)
        for i in range(128):
            l2.install(i * 64)
        assert len(l2) <= 16

    def test_every_bank_set_is_reachable(self):
        # Regression: banking must divide the interleave stride out of the
        # set index, or each bank only ever reaches 1/banks of its sets.
        l2 = self._banked(blocks=16, banks=4)
        for i in range(4):  # blocks 0, 4, 8, 12 all interleave to bank 0
            l2.install(i * 4 * 64)
        for i in range(4):
            assert l2.contains(i * 4 * 64)

    def test_full_nominal_capacity_is_usable(self):
        l2 = self._banked(blocks=16, banks=4)
        for i in range(16):
            l2.install(i * 64)
        assert len(l2) == 16
        for i in range(16):
            assert l2.contains(i * 64)


class L2Model:
    """The L2 as DESIGN section 4 describes it, one recency list per set.

    A block lands in bank ``blocknum % banks`` and, within that bank, in
    set ``(blocknum // banks) % sets_per_bank``.  Each set lists its
    blocks least recently installed first, with their dirty flags; an
    install moves its block to the end, a probe moves nothing, and a
    full set drops its first block, writing it back if dirty.
    """

    def __init__(self, num_sets: int, assoc: int, banks: int) -> None:
        self.assoc = assoc
        self.banks = banks
        self.sets_per_bank = num_sets // banks
        self.sets = {}
        self.hits = self.misses = self.writebacks = 0

    def _ways(self, addr: int) -> list:
        blocknum = addr // 64
        key = (blocknum % self.banks,
               (blocknum // self.banks) % self.sets_per_bank)
        return self.sets.setdefault(key, [])

    def install(self, addr: int, dirty: bool) -> None:
        ways = self._ways(addr)
        resident = [way for way in ways if way[0] == addr]
        if resident:
            ways.remove(resident[0])
        elif len(ways) == self.assoc:
            self.writebacks += ways.pop(0)[1]
        ways.append((addr, dirty))

    def contains(self, addr: int) -> bool:
        return any(way[0] == addr for way in self._ways(addr))

    def probe(self, addr: int) -> bool:
        hit = self.contains(addr)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def __len__(self) -> int:
        return sum(len(ways) for ways in self.sets.values())


l2_steps = st.lists(
    st.tuples(st.sampled_from(("install", "install_dirty", "probe")),
              st.integers(0, 47)),
    min_size=30, max_size=120)


class TestL2AgainstRecencyModel:
    @given(st.sampled_from((1, 2, 4)), l2_steps)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_set_recency_lists(self, banks, steps):
        l2 = L2Cache(CacheConfig(size_bytes=16 * 64, associativity=4,
                                 block_bytes=64, hit_latency=10), banks=banks)
        model = L2Model(num_sets=4, assoc=4, banks=banks)
        touched = set()
        for op, index in steps:
            addr = index * 64
            touched.add(addr)
            if op == "probe":
                assert l2.probe(addr) == model.probe(addr)
            elif op == "install":
                l2.install(addr)
                model.install(addr, False)
            else:
                l2.install_dirty(addr)
                model.install(addr, True)
            assert (l2.hits, l2.misses, l2.writebacks) == \
                (model.hits, model.misses, model.writebacks)
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
        assert config.l2_banks == 4
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
        from repro.coherence.messages import ConflictResolution

        _, config = self._system()
        memory = MemorySystem(config, record_transactions=True)
        conflicts = []

        class Listener:
            def __init__(self, core):
                self.core = core

            def on_external_conflict(self, block_addr, is_write, arrival_time):
                conflicts.append(self.core)
                return ConflictResolution()

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
        out = memory.access(7, 0x1000, is_write=True, now=100_000)
        assert conflicts == sharers
        assert out.record.invalidated_sharers == sharers
        assert out.record.conflicts == sharers
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
