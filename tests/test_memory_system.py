"""Tests for the directory-coherent memory system."""

import pytest

from tests.conftest import dir_transactions, tiny_config
from repro.coherence.memory_system import MemorySystem
from repro.config import resolved_interconnect
from repro.errors import SimulationError
from repro.interconnect.topology import TorusTopology
from repro.memory.block import CoherenceState
from repro.obs import TraceRecorder


def make_mem(recorder=None, **kwargs) -> MemorySystem:
    return MemorySystem(tiny_config(**kwargs), recorder=recorder)


BLOCK = 64 * 1000  # an arbitrary aligned block address


class RecordingListener:
    """A listener that records conflicts and optionally defers requests."""

    def __init__(self, extra_delay: int = 0, commit_time: int = 0):
        self.conflicts = []
        self.forced_commits = []
        self.extra_delay = extra_delay
        self.commit_time = commit_time

    def on_external_conflict(self, block_addr, is_write, arrival_time):
        self.conflicts.append((block_addr, is_write, arrival_time))
        return self.extra_delay

    def forced_commit(self, now):
        self.forced_commits.append(now)
        return max(now, self.commit_time)

    @property
    def speculating(self):
        return False


class TestBasicAccesses:
    def test_cold_load_misses_then_hits(self):
        mem = make_mem()
        out = mem.access(0, BLOCK, is_write=False, now=0)
        assert out.miss
        assert out.completion_time > 0
        again = mem.access(0, BLOCK, is_write=False, now=out.completion_time)
        assert again.hit
        assert again.completion_time == out.completion_time + mem.config.l1.hit_latency

    def test_exclusive_granted_when_unshared(self):
        mem = make_mem()
        out = mem.access(0, BLOCK, is_write=False, now=0)
        assert out.state is CoherenceState.EXCLUSIVE

    def test_second_reader_gets_shared(self):
        mem = make_mem()
        mem.access(0, BLOCK, is_write=False, now=0)
        out = mem.access(1, BLOCK, is_write=False, now=10)
        assert out.state is CoherenceState.SHARED
        entry = mem.directory.entry(BLOCK)
        assert entry.sharer_ids() == [0, 1]

    def test_store_miss_gets_modified(self):
        mem = make_mem()
        out = mem.access(0, BLOCK, is_write=True, now=0)
        assert out.state is CoherenceState.MODIFIED
        assert mem.directory.entry(BLOCK).owner == 0
        assert mem.is_write_hit(0, BLOCK)

    def test_write_hit_is_fast(self):
        mem = make_mem()
        first = mem.access(0, BLOCK, is_write=True, now=0)
        t = first.completion_time
        second = mem.access(0, BLOCK + 8, is_write=True, now=t)
        assert second.hit
        assert second.completion_time == t + mem.config.l1.hit_latency

    def test_upgrade_from_shared(self):
        mem = make_mem()
        mem.access(0, BLOCK, is_write=False, now=0)
        mem.access(1, BLOCK, is_write=False, now=5)
        out = mem.access(0, BLOCK, is_write=True, now=100)
        assert out.miss  # an upgrade is not a simple write hit
        assert mem.directory.entry(BLOCK).owner == 0
        assert not mem.contains(1, BLOCK)
        assert mem.upgrades[0] == 1

    def test_l2_miss_costs_memory_latency(self):
        rec = TraceRecorder()
        mem = make_mem(rec)
        cold = mem.access(0, BLOCK, is_write=False, now=0)
        # Two more blocks of the same L1 set evict the (clean) block, so
        # the directory drops it while the L2 keeps it.
        stride = mem.config.l1.num_sets * 64
        mem.access(0, BLOCK + stride, is_write=False, now=1000)
        mem.access(0, BLOCK + 2 * stride, is_write=False, now=2000)
        assert not mem.contains(0, BLOCK)
        warm = mem.access(0, BLOCK, is_write=False, now=3000)
        transactions = dir_transactions(rec)
        cold_txn, warm_txn = transactions[0], transactions[-1]
        assert (cold_txn["done"], warm_txn["done"]) == \
            (cold.completion_time, warm.completion_time)
        assert not cold_txn["l2_hit"]
        assert warm_txn["l2_hit"]
        assert warm_txn["owner"] is None
        # Same requester, same home, both served by the directory: the
        # miss pays exactly the memory latency on top of the hit.
        assert ((cold_txn["done"] - cold_txn["issue"])
                - (warm_txn["done"] - warm_txn["issue"])
                == mem.config.memory_latency)


class TestOwnerForwarding:
    def test_read_forwarded_from_modified_owner(self):
        rec = TraceRecorder()
        mem = make_mem(rec)
        mem.access(0, BLOCK, is_write=True, now=0)
        mem.access(1, BLOCK, is_write=False, now=1000)
        assert dir_transactions(rec)[-1]["owner"] == 0
        # The previous owner is downgraded to Shared; directory tracks both.
        owner_block = mem.l1(0).lookup(BLOCK, touch=False)
        assert owner_block.state is CoherenceState.SHARED
        assert not owner_block.dirty
        entry = mem.directory.entry(BLOCK)
        assert entry.owner is None
        assert entry.sharer_ids() == [0, 1]
        # The dirty data went to the L2.
        assert mem.l2.contains(BLOCK)

    def test_write_invalidates_modified_owner(self):
        rec = TraceRecorder()
        mem = make_mem(rec)
        mem.access(0, BLOCK, is_write=True, now=0)
        mem.access(1, BLOCK, is_write=True, now=1000)
        assert dir_transactions(rec)[-1]["owner"] == 0
        assert not mem.contains(0, BLOCK)
        assert mem.directory.entry(BLOCK).owner == 1

    def test_write_invalidates_all_sharers(self):
        rec = TraceRecorder()
        mem = make_mem(rec, num_cores=4)
        for core in range(3):
            mem.access(core, BLOCK, is_write=False, now=core * 10)
        mem.access(3, BLOCK, is_write=True, now=1000)
        assert dir_transactions(rec)[-1]["invalidated"] == [0, 1, 2]
        for core in range(3):
            assert not mem.contains(core, BLOCK)
        assert mem.directory.entry(BLOCK).owner == 3

    def test_directory_serialises_same_block(self):
        rec = TraceRecorder()
        mem = make_mem(rec)
        mem.access(0, BLOCK, is_write=True, now=0)
        second = mem.access(1, BLOCK, is_write=True, now=0)
        assert dir_transactions(rec)[-1]["start"] >= mem.config.directory_latency
        assert second.completion_time > 0


class TestConflictDetection:
    def test_external_write_to_spec_read_block_reported(self):
        mem = make_mem()
        listener = RecordingListener()
        mem.register_listener(0, listener)
        mem.access(0, BLOCK, is_write=False, now=0, spec_checkpoint=7)
        mem.access(1, BLOCK, is_write=True, now=500)
        assert len(listener.conflicts) == 1
        addr, is_write, arrival = listener.conflicts[0]
        assert addr == BLOCK and is_write
        assert arrival >= 500

    def test_external_read_to_spec_read_block_not_a_conflict(self):
        mem = make_mem()
        listener = RecordingListener()
        mem.register_listener(0, listener)
        mem.access(0, BLOCK, is_write=False, now=0, spec_checkpoint=7)
        mem.access(1, BLOCK, is_write=False, now=500)
        assert listener.conflicts == []

    def test_external_read_to_spec_written_block_is_a_conflict(self):
        mem = make_mem()
        listener = RecordingListener()
        mem.register_listener(0, listener)
        mem.access(0, BLOCK, is_write=True, now=0, spec_checkpoint=7)
        mem.access(1, BLOCK, is_write=False, now=500)
        assert len(listener.conflicts) == 1
        assert listener.conflicts[0][1] is False

    def test_external_write_to_spec_written_block_is_a_conflict(self):
        mem = make_mem()
        listener = RecordingListener()
        mem.register_listener(0, listener)
        mem.access(0, BLOCK, is_write=True, now=0, spec_checkpoint=7)
        mem.access(1, BLOCK, is_write=True, now=500)
        assert len(listener.conflicts) == 1
        addr, is_write, arrival = listener.conflicts[0]
        assert addr == BLOCK and is_write
        assert arrival >= 500
        assert not mem.contains(0, BLOCK)

    def test_conflict_deferral_extends_requester_latency(self):
        baseline_mem = make_mem()
        baseline_mem.register_listener(0, RecordingListener(extra_delay=0))
        baseline_mem.access(0, BLOCK, is_write=False, now=0, spec_checkpoint=7)
        baseline = baseline_mem.access(1, BLOCK, is_write=True, now=500)

        deferring_mem = make_mem()
        deferring_mem.register_listener(0, RecordingListener(extra_delay=300))
        deferring_mem.access(0, BLOCK, is_write=False, now=0, spec_checkpoint=7)
        deferred = deferring_mem.access(1, BLOCK, is_write=True, now=500)
        assert deferred.completion_time >= baseline.completion_time + 300

    def test_no_listener_means_no_delay(self):
        mem = make_mem()
        mem.access(0, BLOCK, is_write=False, now=0, spec_checkpoint=7)
        out = mem.access(1, BLOCK, is_write=True, now=500)
        assert out.completion_time > 500
        assert mem.conflicts_detected == 1


class TestSpeculativeStores:
    def test_spec_bits_set_on_access(self):
        mem = make_mem()
        mem.access(0, BLOCK, is_write=False, now=0, spec_checkpoint=3)
        assert mem.l1(0).lookup(BLOCK, touch=False).spec_read == 3
        mem.access(0, BLOCK + 64, is_write=True, now=0, spec_checkpoint=3)
        assert mem.l1(0).lookup(BLOCK + 64, touch=False).spec_written == 3

    def test_speculative_store_to_dirty_block_forces_clean_writeback(self):
        mem = make_mem()
        # Make the block non-speculatively dirty.
        mem.access(0, BLOCK, is_write=True, now=0)
        t = 1000
        out = mem.access(0, BLOCK, is_write=True, now=t, spec_checkpoint=9)
        assert out.hit
        assert out.completion_time == t + mem.config.clean_writeback_latency
        # The pre-speculative data is preserved in the L2.
        assert mem.l2.contains(BLOCK)
        block = mem.l1(0).lookup(BLOCK, touch=False)
        assert block.spec_written == 9

    def test_speculative_store_to_clean_block_is_fast(self):
        mem = make_mem()
        mem.access(0, BLOCK, is_write=False, now=0)   # Exclusive, clean
        t = 1000
        out = mem.access(0, BLOCK, is_write=True, now=t, spec_checkpoint=9)
        assert out.completion_time == t + mem.config.l1.hit_latency


class TestEvictionsAndForcedCommit:
    def test_eviction_updates_directory(self):
        mem = MemorySystem(tiny_config(l1_blocks=2, l1_assoc=1))
        # Fill the single way of set 0 twice: the first block is evicted.
        sets = mem.config.l1.num_sets
        first = 0
        second = sets * 64
        mem.access(0, first, is_write=True, now=0)
        mem.access(0, second, is_write=False, now=100)
        assert not mem.contains(0, first)
        assert mem.directory.entry(first).owner is None
        assert mem.l2.contains(first)

    def test_forced_commit_invoked_when_set_is_fully_speculative(self):
        config = tiny_config(l1_blocks=2, l1_assoc=1)
        mem = MemorySystem(config)
        listener = RecordingListener(commit_time=5000)

        class CommittingListener(RecordingListener):
            def __init__(self, mem):
                super().__init__(commit_time=5000)
                self._mem = mem

            def forced_commit(self, now):
                self.forced_commits.append(now)
                self._mem.l1(0).flash_clear_spec_bits()
                return max(now, self.commit_time)

        listener = CommittingListener(mem)
        mem.register_listener(0, listener)
        sets = config.l1.num_sets
        mem.access(0, 0, is_write=True, now=0, spec_checkpoint=1)
        out = mem.access(0, sets * 64, is_write=False, now=100, spec_checkpoint=1)
        assert listener.forced_commits
        assert out.forced_commit_delay == 5000 - 100

    def test_forced_commit_without_listener_raises(self):
        config = tiny_config(l1_blocks=2, l1_assoc=1)
        mem = MemorySystem(config)
        sets = config.l1.num_sets
        mem.access(0, 0, is_write=True, now=0, spec_checkpoint=1)
        with pytest.raises(SimulationError):
            mem.access(0, sets * 64, is_write=False, now=100, spec_checkpoint=1)


class TestStorePrefetchLead:
    def test_lead_shortens_write_miss_latency(self):
        slow = MemorySystem(tiny_config(store_prefetch_lead=0))
        fast = MemorySystem(tiny_config(store_prefetch_lead=80))
        a = slow.access(0, BLOCK, is_write=True, now=0)
        b = fast.access(0, BLOCK, is_write=True, now=0)
        assert b.completion_time == max(slow.config.l1.hit_latency,
                                        a.completion_time - 80)

    def test_lead_does_not_affect_loads(self):
        slow = MemorySystem(tiny_config(store_prefetch_lead=0))
        fast = MemorySystem(tiny_config(store_prefetch_lead=80))
        a = slow.access(0, BLOCK, is_write=False, now=0)
        b = fast.access(0, BLOCK, is_write=False, now=0)
        assert a.completion_time == b.completion_time


class TestExactLatencies:
    """Exact completion times, one test per coherence transaction shape.

    ``tiny_config`` latencies: 10 cycles per hop, directory 4, L1 hit 2,
    L2 hit 10, memory 40.  ``BLOCK`` is block 1000, so its home is node
    ``1000 % nodes``: node 0 on the 2x2 torus of up to 4 cores, node 8
    (coordinates (0, 2)) on the 4x4 torus of 16 cores.  Node ``n`` of a
    ``w``-wide torus sits at ``(n % w, n // w)``.
    """

    @staticmethod
    def _assert_transaction(rec, out, start, completion, l2_hit, owner=None,
                            sharers=()):
        txn = dir_transactions(rec)[-1]
        assert (txn["start"], txn["done"]) == (start, completion)
        assert out.completion_time == completion
        assert txn["l2_hit"] is l2_hit
        assert txn["owner"] == owner
        assert txn["invalidated"] == list(sharers)

    def test_two_hop_l2_miss(self):
        rec = TraceRecorder()
        mem = make_mem(rec, num_cores=4)
        out = mem.access(3, BLOCK, is_write=False, now=0)
        # core 3 -> home 0 is two hops: 20; directory 4 + L2 10 + memory
        # 40; home -> core 3: 20.
        self._assert_transaction(rec, out, start=20, completion=94,
                                 l2_hit=False)
        assert out.state is CoherenceState.EXCLUSIVE

    def test_two_hop_l2_hit(self):
        rec = TraceRecorder()
        mem = make_mem(rec, num_cores=4)
        mem.access(0, BLOCK, is_write=False, now=0)      # owner 0, L2 fill
        mem.access(1, BLOCK, is_write=False, now=1000)   # both now share
        out = mem.access(3, BLOCK, is_write=False, now=5000)
        # 5000 + 20 to home; directory 4 + L2 10; 20 back.
        self._assert_transaction(rec, out, start=5020, completion=5054,
                                 l2_hit=True)
        assert out.state is CoherenceState.SHARED
        assert mem.directory.entry(BLOCK).sharer_ids() == [0, 1, 3]

    def test_three_hop_forward_from_modified_owner(self):
        rec = TraceRecorder()
        mem = make_mem(rec, num_cores=4)
        mem.access(1, BLOCK, is_write=True, now=0)
        out = mem.access(3, BLOCK, is_write=False, now=1000)
        # 1000 + 20 to home 0; the probe reaches owner 1 one hop later
        # (1030); directory 4 + L1 hit 2 at the owner; owner 1 -> core 3
        # is one hop: 1036 + 10.
        self._assert_transaction(rec, out, start=1020, completion=1046,
                                 l2_hit=True, owner=1)
        assert out.state is CoherenceState.SHARED
        owner_block = mem.l1(1).lookup(BLOCK, touch=False)
        assert owner_block.state is CoherenceState.SHARED
        assert not owner_block.dirty

    def test_farthest_sharer_ack_sets_write_completion(self):
        rec = TraceRecorder()
        mem = make_mem(rec, num_cores=16)
        mem.access(9, BLOCK, is_write=False, now=0)      # owner 9, L2 fill
        mem.access(2, BLOCK, is_write=False, now=1000)   # sharers {2, 9}
        out = mem.access(8, BLOCK, is_write=True, now=5000)
        # Core 8 is the home node, so the request and the L2 data cost no
        # network time: 5000 + 4 + 10 = 5014.  Sharer 9 at (1, 2) is one
        # hop away: its ack is back at 5000 + 10 + 10.  Sharer 2 at (2, 0)
        # is four hops away: 5000 + 40 + 40 = 5080 sets the completion.
        self._assert_transaction(rec, out, start=5000, completion=5080,
                                 l2_hit=True, sharers=(2, 9))
        assert out.state is CoherenceState.MODIFIED
        assert not mem.contains(2, BLOCK) and not mem.contains(9, BLOCK)

    def test_upgrade_invalidates_only_the_other_sharers(self):
        rec = TraceRecorder()
        mem = make_mem(rec, num_cores=4)
        mem.access(1, BLOCK, is_write=False, now=0)      # owner 1, L2 fill
        mem.access(3, BLOCK, is_write=False, now=1000)   # sharers {1, 3}
        out = mem.access(1, BLOCK, is_write=True, now=5000)
        # Core 1 upgrades its Shared copy: one hop to home 0 (5010); the
        # L2 data is back at 5010 + 14 + 10, but the invalidation reaches
        # core 3 two hops from home (5030) and its ack needs one more hop.
        assert dir_transactions(rec)[-1]["name"] == "dir.upgrade"
        self._assert_transaction(rec, out, start=5010, completion=5040,
                                 l2_hit=True, sharers=(3,))
        assert mem.upgrades[1] == 1
        assert mem.contains(1, BLOCK) and not mem.contains(3, BLOCK)

    def test_same_block_requests_serialise_on_busy_until(self):
        rec = TraceRecorder()
        mem = make_mem(rec)
        first = mem.access(1, BLOCK, is_write=True, now=0)
        # One hop to home 0 (10); directory 4 + L2 10 + memory 40; one hop
        # back.  The directory entry stays busy until 10 + 4.
        self._assert_transaction(rec, first, start=10, completion=74,
                                 l2_hit=False)
        second = mem.access(0, BLOCK, is_write=True, now=10)
        # Core 0 is at home and arrives at 10, but starts at 14; the probe
        # reaches owner 1 at 24, and 24 + 4 + 2 + 10 hops back.
        assert dir_transactions(rec)[-1]["issue"] == 10
        self._assert_transaction(rec, second, start=14, completion=40,
                                 l2_hit=True, owner=1)

    def test_store_prefetch_lead(self):
        rec = TraceRecorder()
        mem = make_mem(rec, store_prefetch_lead=30)
        out = mem.access(0, BLOCK, is_write=True, now=0)
        # Core 0 is at home 0: 0 + 4 + 10 + 40 = 54 without the lead.
        self._assert_transaction(rec, out, start=0, completion=24,
                                 l2_hit=False)
        load = mem.access(0, BLOCK + 64 * 4, is_write=False, now=100)
        self._assert_transaction(rec, load, start=100, completion=154,
                                 l2_hit=False)


class TestHomeNodes:
    """A block's directory home is its block index modulo the node count."""

    @pytest.mark.parametrize("num_cores", (2, 4, 9, 16, 64))
    def test_request_leg_reaches_the_home_node(self, num_cores):
        rec = TraceRecorder()
        mem = make_mem(rec, num_cores=num_cores)
        topo = TorusTopology(mem.config.interconnect)
        hop = mem.config.interconnect.hop_latency
        nodes = topo.num_nodes
        for core in range(num_cores):
            for home in range(nodes):
                # A block of its own per (core, home) keeps every request
                # a cold miss to an idle directory entry.
                block = (core * nodes + home) * 64
                mem.access(core, block, is_write=False, now=0)
                txn = dir_transactions(rec)[-1]
                assert txn["home"] == home
                assert txn["start"] == topo.hops(core, home) * hop

    def test_home_is_stable_within_a_block(self):
        timings = set()
        for offset in (0, 8, 63):
            rec = TraceRecorder()
            mem = make_mem(rec, num_cores=4)
            out = mem.access(3, BLOCK + offset, is_write=False, now=0)
            txn = dir_transactions(rec)[-1]
            assert txn["block"] == hex(BLOCK)
            timings.add((txn["start"], out.completion_time))
        # Block 1000 is homed at node 0, two hops from core 3.
        assert timings == {(20, 94)}
        # The next block is homed at node 1, one hop from core 3.
        rec = TraceRecorder()
        make_mem(rec, num_cores=4).access(3, BLOCK + 64, is_write=False,
                                          now=0)
        assert dir_transactions(rec)[-1]["start"] == 10


class TestContentionFreeNetwork:
    """Every network leg costs its hops times the hop latency, however
    many messages are in flight (DESIGN.md section 4)."""

    @staticmethod
    def _ring_mem(recorder) -> MemorySystem:
        config = tiny_config().replace(
            interconnect=resolved_interconnect(2, hop_latency=10))
        return MemorySystem(config, recorder=recorder)

    def test_concurrent_requests_to_one_home_are_not_delayed(self):
        rec = TraceRecorder()
        mem = self._ring_mem(rec)
        first = mem.access(1, BLOCK, is_write=False, now=0)
        # One hop each way around the 1x2 ring; directory 4 + L2 10 +
        # memory 40 at home 0.
        assert dir_transactions(rec)[-1]["start"] == 10
        assert first.completion_time == 74
        # Another block with the same home, sent over the same link at
        # the same time, pays exactly the same.
        second = mem.access(1, BLOCK + 64 * 2, is_write=False, now=0)
        assert dir_transactions(rec)[-1]["start"] == 10
        assert second.completion_time == 74

    def test_round_trip_is_twice_the_one_way_latency(self):
        rec = TraceRecorder()
        mem = make_mem(rec, num_cores=16)
        topo = TorusTopology(mem.config.interconnect)
        for core in range(16):
            # Every core misses on its own block, all homed at node 0.
            out = mem.access(core, core * 16 * 64, is_write=False, now=0)
            leg = topo.hops(core, 0) * 10
            assert dir_transactions(rec)[-1]["start"] == leg
            assert out.completion_time == 2 * leg + 4 + 10 + 40

    @pytest.mark.parametrize("hop", (0, 10, 25))
    def test_cold_miss_scales_with_hop_latency(self, hop):
        rec = TraceRecorder()
        mem = make_mem(rec, num_cores=4, hop_latency=hop)
        out = mem.access(3, BLOCK, is_write=False, now=0)
        # Core 3 is two hops from home 0 in each direction.
        assert dir_transactions(rec)[-1]["start"] == 2 * hop
        assert out.completion_time == 4 * hop + 4 + 10 + 40


class TestInvariants:
    def test_check_invariants_after_traffic(self):
        mem = make_mem(num_cores=4)
        for i in range(40):
            core = i % 4
            addr = BLOCK + (i % 7) * 64
            mem.access(core, addr, is_write=(i % 3 == 0), now=i * 50)
        mem.check_invariants()

    def test_transaction_records_collected(self):
        rec = TraceRecorder()
        mem = make_mem(rec)
        mem.access(0, BLOCK, is_write=True, now=0)
        mem.access(0, BLOCK + 8, is_write=True, now=50)    # a write hit
        mem.access(1, BLOCK, is_write=False, now=100)
        transactions = dir_transactions(rec)
        assert [(t["name"], t["core"]) for t in transactions] == \
            [("dir.getm", 0), ("dir.gets", 1)]
        assert rec.counters["coherence.transactions"] == 2
        assert all(t["issue"] <= t["start"] <= t["done"]
                   for t in transactions)


class TestHitProbes:
    """``load_hit_time``/``store_hit_time`` answer hits; a decline is a no-op.

    The fast engine probes before it falls back to :meth:`request`, so a
    declined probe must leave the L1 exactly as it found it: no LRU stamp
    on the block, no tick of the array's LRU clock, no hit counted.
    """

    @staticmethod
    def _snapshot(mem, core=0):
        l1 = mem.l1(core)
        block = l1.lookup(BLOCK, touch=False)
        return (l1.lru_clock, block.last_use if block is not None else None,
                list(mem.l1_hits), list(mem.l1_misses))

    def test_load_probe_hits_a_valid_block(self):
        mem = make_mem()
        mem.request(0, BLOCK, False, 0)
        clock = mem.l1(0).lru_clock
        assert mem.load_hit_time(0, BLOCK + 8, 100) == \
            100 + mem.config.l1.hit_latency
        assert mem.l1(0).lru_clock == clock + 1
        assert mem.l1(0).lookup(BLOCK, touch=False).last_use == clock + 1

    def test_declined_load_probe_leaves_no_trace(self):
        mem = make_mem()
        before = self._snapshot(mem)
        assert mem.load_hit_time(0, BLOCK, 0) is None  # absent
        assert self._snapshot(mem) == before
        mem.request(0, BLOCK, False, 0)
        mem.l1(0).lookup(BLOCK, touch=False).invalidate()
        before = self._snapshot(mem)
        assert mem.load_hit_time(0, BLOCK, 10) is None  # invalid placeholder
        assert self._snapshot(mem) == before

    def test_declined_store_probe_leaves_no_trace(self):
        mem = make_mem()
        mem.request(0, BLOCK, False, 0)
        mem.request(1, BLOCK, False, 10)  # core 0's copy becomes Shared
        block = mem.l1(0).lookup(BLOCK, touch=False)
        assert block.state is CoherenceState.SHARED
        before = self._snapshot(mem)
        assert mem.store_hit_time(0, BLOCK, 1000, spec_checkpoint=7) is None
        assert self._snapshot(mem) == before
        assert block.spec_written is None and block.spec_read is None
        assert mem.store_hit_time(0, BLOCK + 64, 1000) is None  # absent
        assert self._snapshot(mem) == before

    def test_declined_probe_then_request_matches_a_direct_request(self):
        probed, direct = make_mem(), make_mem()
        for mem in (probed, direct):
            mem.request(0, BLOCK, False, 0)
            mem.request(1, BLOCK, False, 10)
        assert probed.store_hit_time(0, BLOCK, 1000) is None
        assert probed.request(0, BLOCK, True, 1000) == \
            direct.request(0, BLOCK, True, 1000)
        assert self._snapshot(probed) == self._snapshot(direct)

    def test_reference_memory_system_always_declines(self):
        mem = MemorySystem(tiny_config(), fast_path=False)
        mem.request(0, BLOCK, True, 0)
        before = self._snapshot(mem)
        assert mem.load_hit_time(0, BLOCK, 100) is None
        assert mem.store_hit_time(0, BLOCK, 100) is None
        assert self._snapshot(mem) == before
