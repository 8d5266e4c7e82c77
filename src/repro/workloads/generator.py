"""Synthetic trace generator.

Each thread's trace is generated independently from a deterministic
per-thread RNG stream (derived from the workload seed and thread id), so
traces are reproducible and threads can be generated lazily.  Every draw
goes through a :class:`TraceRng`, which takes it straight from the
stream's PCG64 raw outputs, value for value what numpy's ``Generator``
would draw (DESIGN.md section 11).

The generated behaviour, per thread:

* A background mix of compute bundles, loads, and stores over a private
  region and a shared region, with temporal locality modelled by a reuse
  window of recently touched blocks.
* Periodic critical sections: an atomic compare-and-swap on a lock block
  followed by an acquire fence, a handful of accesses to the blocks
  protected by that lock, and a releasing store to the lock block.  Locks
  and their data are shared by all threads, so contended locks generate
  invalidation traffic and speculation conflicts.
* Occasional store bursts over consecutive blocks (log flushing, buffer
  copies), which stress FIFO store buffer capacity.
* Occasional migratory read-modify-write accesses to a small set of hot
  shared blocks.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..memory.address import WORD_BYTES
from ..trace.ops import MemOp, atomic, compute, fence, load, store
from ..trace.trace import MultiThreadedTrace, Trace
from .spec import (MAX_COUNTER_BLOCKS, MAX_LOCK_DATA_BLOCKS, MAX_LOCKS,
                   MAX_MIGRATORY_BLOCKS, MAX_PRIVATE_BLOCKS, WorkloadSpec)

#: Cache block size assumed by the address-map layout.
BLOCK_BYTES = 64

#: Words per cache block: an access picks one word of its block.
WORDS_PER_BLOCK = BLOCK_BYTES // WORD_BYTES

# Address-map region bases (in blocks).  Each region holds the most blocks
# a WorkloadSpec may ask of it, so regions are disjoint by construction;
# the shared heap ends where the scenario pattern regions start (block
# 200,000, see repro.scenarios.patterns).
_LOCK_REGION_BASE = 1_000
_LOCK_DATA_BASE = _LOCK_REGION_BASE + MAX_LOCKS  # 10,000
_COUNTER_BASE = _LOCK_DATA_BASE + MAX_LOCK_DATA_BLOCKS  # 50,000
_MIGRATORY_BASE = _COUNTER_BASE + MAX_COUNTER_BLOCKS  # 60,000
_SHARED_BASE = _MIGRATORY_BASE + MAX_MIGRATORY_BLOCKS  # 100,000
_PRIVATE_BASE = 10_000_000
_PRIVATE_STRIDE = MAX_PRIVATE_BLOCKS

#: ``raw >> 11 < p * UNIT`` is ``Generator.random() < p`` exactly: random()
#: returns ``(raw >> 11) * 2**-53``, and scaling by a power of two is exact.
UNIT = float(1 << 53)

_TWO32 = 1 << 32


class TraceRng:
    """One trace stream's draws, taken straight from its PCG64 raw outputs.

    Each draw gives, value for value, what numpy's ``Generator`` over the
    same bit generator would:

    * :meth:`chance` (and ``raw() >> 11 < p * UNIT`` inline) is
      ``Generator.random() < p``;
    * :meth:`below` is ``int(Generator.integers(0, n))`` for n <= 2**32;
    * :attr:`geometric` is ``Generator.geometric`` itself.

    Trace emitters draw only through this object.  numpy keeps the unused
    upper half of a raw output for its next 32-bit bounded draw inside
    the bit generator, while this object keeps it here, so mixing its
    draws with the Generator's ``integers`` would desync the stream.
    Nothing is drawn ahead, so numpy's geometric (whose ziggurat tables
    numpy does not expose) stays aligned with the draws around it.
    """

    __slots__ = ("raw", "geometric", "_half")

    def __init__(self, generator: np.random.Generator) -> None:
        #: the stream's next 64-bit raw output.
        self.raw = generator.bit_generator.random_raw
        #: numpy's own geometric draw (number of trials, at least 1).
        self.geometric = generator.geometric
        # the unused upper 32 bits of the last raw output a bounded draw
        # split, or -1 when there are none.
        self._half = -1

    def chance(self, p: float) -> bool:
        """``Generator.random() < p``, from one raw output."""
        return self.raw() >> 11 < p * UNIT

    def below(self, n: int) -> int:
        """``int(Generator.integers(0, n))``: numpy's 32-bit Lemire draw."""
        if n <= 1 or n > _TWO32:
            if n == 1:
                return 0  # numpy draws nothing for a one-value range
            raise ValueError(f"below(n) needs 1 <= n <= 2**32, got n={n}")
        # The first 32-bit draw is _next32 without its frame.
        half = self._half
        if half >= 0:
            self._half = -1
            m = half * n
        else:
            raw = self.raw()
            self._half = raw >> 32
            m = (raw & 0xFFFFFFFF) * n
        if m & 0xFFFFFFFF < n:
            # Reject the low products that would bias the result (none
            # for n == 2**32, where numpy returns the 32-bit draw itself).
            threshold = (_TWO32 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * n
        return m >> 32

    def _next32(self) -> int:
        """numpy's ``next_uint32``: the low half first, the high half kept."""
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        raw = self.raw()
        self._half = raw >> 32
        return raw & 0xFFFFFFFF


def thread_rng(seed: int, thread_id: int) -> TraceRng:
    """The per-thread stream used by single-spec workloads."""
    return TraceRng(np.random.default_rng((seed * 65_537 + thread_id) & 0x7FFFFFFF))


def phase_rng(seed: int, thread_id: int, phase_index: int) -> TraceRng:
    """Deterministic per-(seed, thread, phase) stream.

    Phase splicing derives every phase's stream independently, so editing
    one phase of a scenario leaves the operations of every other phase
    bitwise unchanged.
    """
    entropy = (seed & 0xFFFFFFFF, thread_id, phase_index)
    return TraceRng(np.random.default_rng(np.random.SeedSequence(entropy)))


class SyntheticWorkloadGenerator:
    """Generates a :class:`MultiThreadedTrace` from a :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec, num_threads: int, seed: int = 0) -> None:
        self.spec = spec
        self.num_threads = num_threads
        self.seed = seed

    # -- public API -----------------------------------------------------------

    def generate(self) -> MultiThreadedTrace:
        traces = [self.generate_thread(tid) for tid in range(self.num_threads)]
        return MultiThreadedTrace(traces, name=self.spec.name, seed=self.seed)

    def generate_thread(self, thread_id: int) -> Trace:
        rng = thread_rng(self.seed, thread_id)
        ops = self.emit_ops(thread_id, rng, self.spec.ops_per_thread)
        return Trace(ops, thread_id=thread_id)

    def emit_ops(self, thread_id: int, rng: TraceRng, count: int) -> List[MemOp]:
        """Emit exactly ``count`` operations of this spec's mix.

        The stream is injected so the scenario engine's phase splicing can
        drive one spec with an independent per-(seed, thread, phase)
        stream; :meth:`generate_thread` wraps this with the classic
        per-thread stream.

        Each background op is drawn and built in this one loop; the
        spec's probabilities become thresholds on ``raw() >> 11`` before
        it starts (see :class:`TraceRng`).  Critical sections and store
        bursts go to their helpers, which draw from the same stream.
        """
        spec = self.spec
        ops: List[MemOp] = []
        append = ops.append
        raw = rng.raw
        below = rng.below
        geometric = rng.geometric

        sync_cut = (1.0 / spec.sync_interval) * UNIT
        atomic_prob = spec.lockfree_atomic_prob
        atomic_cut = atomic_prob * UNIT
        compute_cut = spec.compute_fraction * UNIT
        store_cut = (spec.compute_fraction + spec.store_fraction) * UNIT
        shared_cut = spec.shared_fraction * UNIT
        migratory_cut = spec.migratory_fraction * UNIT
        burst_cut = spec.store_burst_prob * UNIT
        locality_cut = spec.locality * UNIT
        compute_p = 1.0 / spec.compute_run_mean
        counter_blocks = spec.atomic_counter_blocks
        migratory_blocks = spec.migratory_blocks
        shared_blocks = spec.shared_blocks
        private_blocks = spec.private_blocks
        reuse_window = spec.reuse_window

        private_base = _PRIVATE_BASE + thread_id * _PRIVATE_STRIDE
        private_recent: List[int] = []
        shared_recent: List[int] = []

        while len(ops) < count:
            if raw() >> 11 < sync_cut:
                self._emit_critical_section(ops, rng, thread_id)
                continue
            if atomic_prob and raw() >> 11 < atomic_cut:
                # Lock-free synchronisation: an atomic increment on a
                # shared counter, with no fence attached.
                block = _COUNTER_BASE + below(counter_blocks)
                append(atomic(block * BLOCK_BYTES + below(WORDS_PER_BLOCK) * WORD_BYTES,
                              label="lockfree_atomic"))
                continue

            draw = raw() >> 11
            if draw < compute_cut:
                append(compute(max(1, int(geometric(compute_p)))))
                continue
            is_store = draw < store_cut
            shared = raw() >> 11 < shared_cut

            if shared and raw() >> 11 < migratory_cut:
                # Migratory read-modify-write on a hot block.
                block = _MIGRATORY_BASE + below(migratory_blocks)
                addr = block * BLOCK_BYTES + below(WORDS_PER_BLOCK) * WORD_BYTES
                append(load(addr, label="migratory_read"))
                append(store(addr, label="migratory_write"))
                continue

            if is_store and raw() >> 11 < burst_cut:
                self._emit_store_burst(ops, rng, private_base, shared)
                continue

            # An ordinary access: reuse a recently touched block of the
            # region, or touch a new one and remember it.
            recent = shared_recent if shared else private_recent
            if recent and raw() >> 11 < locality_cut:
                block = recent[below(len(recent))]
            else:
                if shared:
                    block = _SHARED_BASE + below(shared_blocks)
                else:
                    block = private_base + below(private_blocks)
                recent.append(block)
                if len(recent) > reuse_window:
                    del recent[0]
            addr = block * BLOCK_BYTES + below(WORDS_PER_BLOCK) * WORD_BYTES
            label = "shared" if shared else "private"
            append(store(addr, label=label) if is_store else load(addr, label=label))
        del ops[count:]
        return ops

    # -- pieces ------------------------------------------------------------------

    def _pick_lock(self, rng: TraceRng, thread_id: int) -> int:
        """Choose a lock, biased towards the thread's own partition."""
        spec = self.spec
        if spec.lock_affinity and rng.chance(spec.lock_affinity):
            partition = max(1, spec.num_locks // max(1, self.num_threads))
            base = (thread_id % max(1, self.num_threads)) * partition
            return (base + rng.below(partition)) % spec.num_locks
        return rng.below(spec.num_locks)

    def _emit_critical_section(self, ops: List[MemOp], rng: TraceRng,
                               thread_id: int) -> None:
        spec = self.spec
        lock_id = self._pick_lock(rng, thread_id)
        lock_block = _LOCK_REGION_BASE + lock_id
        lock_addr = lock_block * BLOCK_BYTES

        # Acquire: atomic compare-and-swap plus an acquire fence.  Following
        # the paper's methodology, no fence is emitted at release.
        ops.append(atomic(lock_addr, label="lock_acquire"))
        ops.append(fence(label="acquire_fence"))

        below = rng.below
        length = max(1, int(rng.geometric(1.0 / spec.critical_section_len)))
        data_base = _LOCK_DATA_BASE + lock_id * spec.blocks_per_lock
        for _ in range(length):
            block = data_base + below(spec.blocks_per_lock)
            addr = block * BLOCK_BYTES + below(WORDS_PER_BLOCK) * WORD_BYTES
            if rng.chance(0.5):
                ops.append(load(addr, label="critical_read"))
            else:
                ops.append(store(addr, label="critical_write"))

        # Release: an ordinary store to the lock word.
        ops.append(store(lock_addr, label="lock_release"))

    def _emit_store_burst(self, ops: List[MemOp], rng: TraceRng,
                          private_base: int, shared: bool) -> None:
        """Streaming stores over consecutive blocks (buffer copy / log write).

        Every word of every block is written, which is the access pattern
        that separates the two store-buffer organisations: a word-granularity
        FIFO needs eight entries per block while a coalescing buffer needs
        one (and none at all once the block is writable in the L1).
        """
        spec = self.spec
        length = max(2, int(rng.geometric(1.0 / spec.store_burst_len)))
        if shared:
            start = _SHARED_BASE + rng.below(max(1, spec.shared_blocks - length))
        else:
            start = private_base + rng.below(max(1, spec.private_blocks - length))
        for i in range(length):
            base = (start + i) * BLOCK_BYTES
            for word in range(WORDS_PER_BLOCK):
                ops.append(store(base + word * WORD_BYTES, label="burst"))


def generate_workload(spec: WorkloadSpec, num_threads: int,
                      seed: int = 0) -> MultiThreadedTrace:
    """Generate a multi-threaded trace for ``spec``."""
    return SyntheticWorkloadGenerator(spec, num_threads, seed).generate()
