"""Sharing-pattern primitives: dedicated trace emitters per coherence idiom.

Each primitive emits one thread's slice of a collective access pattern
whose *coherence behaviour* -- not just its instruction mix -- matches a
well-known parallel idiom.  The single-spec workload generator blends
sharing styles statistically; these emitters instead construct the exact
block-level choreography (who writes, who reads, in what order) that
produces the idiom's characteristic traffic:

* ``producer_consumer`` -- ring hand-off through per-queue slot blocks:
  blocks written by thread *t* are read by thread *t+1*, the classic
  migratory transfer (remote dirty read, owner downgrade).
* ``barrier`` -- compute intervals separated by an atomic fetch-add on one
  shared counter block plus spin loads on a sense block: bursty all-thread
  atomic contention and a store-buffer drain at every episode.
* ``false_sharing`` -- every thread writes its *own word* of a small set
  of hot blocks: no data race exists at word granularity, yet block-level
  coherence ping-pongs ownership and invalidates all other writers.
* ``rw_lock`` -- a readers-writer lock: read-mostly sections touch widely
  read-shared data blocks that a periodic writer invalidates wholesale.
* ``work_stealing`` -- per-thread deques accessed locally through plain
  ops, with occasional steals that CAS a victim's top-index block and read
  its task blocks: mostly-private traffic with sporadic remote atomics.

Emitters draw randomness only from the stream handed to them (a
per-(seed, thread, phase) :class:`~repro.workloads.generator.TraceRng` --
see :func:`repro.workloads.generator.phase_rng`), walk collective
structures by deterministic iteration index, and may emit slightly more
operations than asked; the scenario engine truncates to the exact phase
length.

Address-map layout: pattern regions (blocks 200k-299k) lie above the
workload generator's shared heap, which starts at block 100k.  They stay
disjoint from it, so phases of either kind never collide on blocks by
accident, because a :class:`~repro.workloads.spec.WorkloadSpec` rejects
``shared_blocks`` above 100,000.  Each pattern owns the 20,000 blocks
from its base, and an emitter raises :class:`~repro.errors.ScenarioError`
when its parameters at the phase's thread count would lay blocks past
them, into the next pattern's region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

from ..errors import ScenarioError
from ..memory.address import WORD_BYTES
from ..trace.ops import MemOp, atomic, compute, fence, load, store
from ..workloads.generator import BLOCK_BYTES, UNIT, WORDS_PER_BLOCK, TraceRng

# Region bases (in blocks); disjoint from the workload generator's regions.
_QUEUE_BASE = 200_000
_BARRIER_BASE = 220_000
_FALSE_BASE = 240_000
_RWLOCK_BASE = 260_000
_DEQUE_BASE = 280_000
#: blocks each pattern's region holds from its base, up to the next base.
_REGION_BLOCKS = 20_000

#: Emitter signature: (rng, thread_id, num_threads, count, params) -> ops.
PatternEmitter = Callable[
    [TraceRng, int, int, int, Mapping[str, object]], List[MemOp]]


def _word_addr(block: int, word: int) -> int:
    return block * BLOCK_BYTES + (word % WORDS_PER_BLOCK) * WORD_BYTES


def _param(params: Mapping[str, object], key: str, default: int) -> int:
    value = int(params.get(key, default))  # type: ignore[arg-type]
    if value <= 0:
        raise ScenarioError(f"pattern parameter {key!r} must be positive, got {value}")
    return value


def _check_region(pattern: str, extent: int, num_threads: int,
                  **sizes: int) -> None:
    """Reject a phase whose ``extent`` blocks overrun its pattern's region."""
    if extent > _REGION_BLOCKS:
        named = ", ".join(f"{key}={value}" for key, value in sizes.items())
        raise ScenarioError(
            f"pattern {pattern!r} with {named} at {num_threads} threads "
            f"spans {extent} blocks; its region holds {_REGION_BLOCKS}")


def _fraction(params: Mapping[str, object], key: str, default: float) -> float:
    value = float(params.get(key, default))  # type: ignore[arg-type]
    if not 0.0 <= value <= 1.0:
        raise ScenarioError(f"pattern parameter {key!r} must lie in [0, 1], got {value}")
    return value


# ---------------------------------------------------------------------------
# producer-consumer queue hand-off

def emit_producer_consumer(rng: TraceRng, thread_id: int,
                           num_threads: int, count: int,
                           params: Mapping[str, object]) -> List[MemOp]:
    """Ring hand-off: thread *t* fills queue *t*, drains queue *t-1*.

    Producer and consumer walk the same slot sequence by iteration index,
    so every payload block is written by exactly one thread and then read
    by exactly one other -- a pure migratory pattern.  Params: ``slots``
    (ring capacity), ``payload_blocks`` (blocks per item), ``compute``
    (mean pacing cycles between items).
    """
    slots = _param(params, "slots", 32)
    payload = _param(params, "payload_blocks", 2)
    pacing = _param(params, "compute", 4)
    stride = 1 + slots * payload  # control block + payload slots
    _check_region("producer_consumer", num_threads * stride, num_threads,
                  slots=slots, payload_blocks=payload)
    own_base = _QUEUE_BASE + thread_id * stride
    prev_base = _QUEUE_BASE + ((thread_id - 1) % num_threads) * stride

    ops: List[MemOp] = []
    item = 0
    while len(ops) < count:
        slot = item % slots
        # Produce into the own queue: fill the slot, then publish the head.
        for j in range(payload):
            block = own_base + 1 + slot * payload + j
            ops.append(store(_word_addr(block, j), label="queue_fill"))
        ops.append(store(_word_addr(own_base, 0), label="queue_publish"))
        # Consume from the neighbour's queue: poll the head, read the slot,
        # retire the tail.
        ops.append(load(_word_addr(prev_base, 0), label="queue_poll"))
        for j in range(payload):
            block = prev_base + 1 + slot * payload + j
            ops.append(load(_word_addr(block, j), label="queue_take"))
        ops.append(store(_word_addr(prev_base, 1), label="queue_retire"))
        ops.append(compute(max(1, int(rng.geometric(1.0 / pacing)))))
        item += 1
    return ops


# ---------------------------------------------------------------------------
# barrier-synchronised compute phases

def emit_barrier(rng: TraceRng, thread_id: int, num_threads: int,
                 count: int, params: Mapping[str, object]) -> List[MemOp]:
    """Local compute intervals separated by sense-reversing barriers.

    Every episode is an atomic fetch-add on the shared arrival counter, a
    full fence, and a few spin loads on the sense block -- all threads on
    the same two blocks.  Params: ``interval`` (mean local ops between
    barriers), ``spin_reads``, ``local_blocks`` (per-thread scratch).
    """
    interval = _param(params, "interval", 40)
    spin_reads = _param(params, "spin_reads", 3)
    local_blocks = _param(params, "local_blocks", 64)
    _check_region("barrier", 8 + num_threads * local_blocks, num_threads,
                  local_blocks=local_blocks)
    counter = _BARRIER_BASE
    sense = _BARRIER_BASE + 1
    scratch = _BARRIER_BASE + 8 + thread_id * local_blocks

    raw, below = rng.raw, rng.below
    ops: List[MemOp] = []
    while len(ops) < count:
        for _ in range(max(1, int(rng.geometric(1.0 / interval)))):
            draw = raw() >> 11  # Generator.random() * 2**53
            block = scratch + below(local_blocks)
            if draw < 0.5 * UNIT:
                ops.append(compute(max(1, int(rng.geometric(1.0 / 3.0)))))
            elif draw < 0.8 * UNIT:
                ops.append(load(_word_addr(block, below(WORDS_PER_BLOCK)),
                                label="barrier_local"))
            else:
                ops.append(store(_word_addr(block, below(WORDS_PER_BLOCK)),
                                 label="barrier_local"))
        ops.append(atomic(_word_addr(counter, 0), label="barrier_arrive"))
        ops.append(fence(label="barrier_fence"))
        for _ in range(spin_reads):
            ops.append(load(_word_addr(sense, 0), label="barrier_spin"))
    return ops


# ---------------------------------------------------------------------------
# false sharing

def emit_false_sharing(rng: TraceRng, thread_id: int,
                       num_threads: int, count: int,
                       params: Mapping[str, object]) -> List[MemOp]:
    """Per-thread counters packed into shared blocks: distinct words, same
    block.

    Thread *t* only ever touches word ``t % 8`` of its group's hot blocks,
    so there is no word-level race -- yet every store invalidates the other
    threads' copies of the block.  Threads beyond one block's worth of
    words spill into a separate block group (a bigger "counter array").
    Params: ``hot_blocks`` (blocks per group), ``write_fraction``,
    ``compute`` (mean pacing cycles).
    """
    hot_blocks = _param(params, "hot_blocks", 4)
    write_fraction = _fraction(params, "write_fraction", 0.7)
    pacing = _param(params, "compute", 2)
    groups = -(-num_threads // WORDS_PER_BLOCK)
    _check_region("false_sharing", groups * hot_blocks, num_threads,
                  hot_blocks=hot_blocks)
    group = thread_id // WORDS_PER_BLOCK
    word = thread_id % WORDS_PER_BLOCK
    base = _FALSE_BASE + group * hot_blocks

    ops: List[MemOp] = []
    i = 0
    while len(ops) < count:
        block = base + i % hot_blocks
        addr = _word_addr(block, word)
        if rng.chance(write_fraction):
            ops.append(store(addr, label="false_sharing"))
        else:
            ops.append(load(addr, label="false_sharing"))
        ops.append(compute(max(1, int(rng.geometric(1.0 / pacing)))))
        i += 1
    return ops


# ---------------------------------------------------------------------------
# readers-writer lock

def emit_rw_lock(rng: TraceRng, thread_id: int, num_threads: int,
                 count: int, params: Mapping[str, object]) -> List[MemOp]:
    """Read-mostly critical sections under a readers-writer lock.

    Readers bump the shared reader count (atomic + acquire fence), scan the
    protected data blocks, and decrement; occasionally a section is a write
    section instead: CAS on the writer word, stores over the same data
    blocks, releasing store.  The data blocks are therefore read-shared by
    every thread and periodically invalidated wholesale.  Params:
    ``data_blocks``, ``section_len``, ``write_fraction``.
    """
    data_blocks = _param(params, "data_blocks", 8)
    section_len = _param(params, "section_len", 4)
    write_fraction = _fraction(params, "write_fraction", 0.1)
    _check_region("rw_lock", 2 + data_blocks, num_threads,
                  data_blocks=data_blocks)
    reader_word = _word_addr(_RWLOCK_BASE, 0)
    writer_word = _word_addr(_RWLOCK_BASE + 1, 0)
    data_base = _RWLOCK_BASE + 2

    below = rng.below
    ops: List[MemOp] = []
    while len(ops) < count:
        is_write = rng.chance(write_fraction)
        length = max(1, int(rng.geometric(1.0 / section_len)))
        if is_write:
            ops.append(atomic(writer_word, label="rw_writer_acquire"))
            ops.append(fence(label="rw_acquire_fence"))
            for _ in range(length):
                block = data_base + below(data_blocks)
                ops.append(store(_word_addr(block, below(WORDS_PER_BLOCK)),
                                 label="rw_write"))
            ops.append(store(writer_word, label="rw_writer_release"))
        else:
            ops.append(atomic(reader_word, label="rw_reader_acquire"))
            ops.append(fence(label="rw_acquire_fence"))
            for _ in range(length):
                block = data_base + below(data_blocks)
                ops.append(load(_word_addr(block, below(WORDS_PER_BLOCK)),
                                label="rw_read"))
            ops.append(atomic(reader_word, label="rw_reader_release"))
        ops.append(compute(max(1, int(rng.geometric(1.0 / 3.0)))))
    return ops


# ---------------------------------------------------------------------------
# work-stealing deque

def emit_work_stealing(rng: TraceRng, thread_id: int,
                       num_threads: int, count: int,
                       params: Mapping[str, object]) -> List[MemOp]:
    """Chase-Lev-style deques: local push/pop, occasional remote steal.

    The owner works its own deque with plain loads/stores (bottom index +
    task blocks); with probability ``steal_fraction`` an iteration instead
    CASes a victim's top-index block and reads the stolen task's blocks.
    Params: ``deque_blocks``, ``task_len``, ``steal_fraction``, ``compute``.
    """
    deque_blocks = _param(params, "deque_blocks", 16)
    task_len = _param(params, "task_len", 3)
    steal_fraction = _fraction(params, "steal_fraction", 0.1)
    pacing = _param(params, "compute", 4)
    stride = 1 + deque_blocks  # top-index control block + task blocks
    _check_region("work_stealing", num_threads * stride, num_threads,
                  deque_blocks=deque_blocks)

    def ctrl(owner: int) -> int:
        return _DEQUE_BASE + owner * stride

    ops: List[MemOp] = []
    item = 0
    while len(ops) < count:
        if num_threads > 1 and rng.chance(steal_fraction):
            victim = rng.below(num_threads - 1)
            if victim >= thread_id:
                victim += 1
            ops.append(atomic(_word_addr(ctrl(victim), 0), label="steal_cas"))
            slot = rng.below(deque_blocks)
            for j in range(task_len):
                block = ctrl(victim) + 1 + (slot + j) % deque_blocks
                ops.append(load(_word_addr(block, j), label="steal_task"))
        else:
            slot = item % deque_blocks
            for j in range(task_len):
                block = ctrl(thread_id) + 1 + (slot + j) % deque_blocks
                ops.append(store(_word_addr(block, j), label="deque_push"))
            ops.append(store(_word_addr(ctrl(thread_id), 1), label="deque_bottom"))
            for j in range(task_len):
                block = ctrl(thread_id) + 1 + (slot + j) % deque_blocks
                ops.append(load(_word_addr(block, j), label="deque_pop"))
            item += 1
        ops.append(compute(max(1, int(rng.geometric(1.0 / pacing)))))
    return ops


# ---------------------------------------------------------------------------
# registry of primitives

@dataclass(frozen=True)
class SharingPattern:
    """One named sharing-pattern primitive."""

    name: str
    description: str
    emit: PatternEmitter


PATTERNS: Dict[str, SharingPattern] = {
    p.name: p for p in (
        SharingPattern("producer_consumer",
                       "ring queue hand-off; migratory block transfers",
                       emit_producer_consumer),
        SharingPattern("barrier",
                       "compute intervals split by contended barrier episodes",
                       emit_barrier),
        SharingPattern("false_sharing",
                       "distinct words of shared blocks; invalidation ping-pong",
                       emit_false_sharing),
        SharingPattern("rw_lock",
                       "read-mostly sections; periodic wholesale invalidation",
                       emit_rw_lock),
        SharingPattern("work_stealing",
                       "local deque traffic with sporadic remote steal CASes",
                       emit_work_stealing),
    )
}


def pattern_names() -> Tuple[str, ...]:
    return tuple(PATTERNS)


def pattern(name: str) -> SharingPattern:
    """Look up a primitive by name."""
    try:
        return PATTERNS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown sharing pattern {name!r}; available: "
            f"{', '.join(pattern_names())}"
        ) from None
