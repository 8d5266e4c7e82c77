"""Workload specification.

A :class:`WorkloadSpec` captures the knobs of the synthetic trace
generator.  Each knob maps to a behaviour that the paper's evaluation
depends on:

* ``sync_interval`` / ``critical_section_len`` / ``num_locks`` -- how often
  threads execute lock acquires (an atomic plus an acquire fence) and how
  contended those locks are; this drives the "SB drain" stalls of TSO/RMO
  and the conflict rate seen during speculation.
* ``store_fraction`` / ``store_burst_len`` -- store density and
  burstiness; bursts of store misses fill the word-granularity FIFO store
  buffers of SC/TSO ("SB full" stalls).
* ``shared_fraction`` / ``shared_blocks`` / ``locality`` -- footprint and
  sharing, which set the cache miss rate ("Other" stalls) and the amount
  of invalidation traffic.
* ``migratory_fraction`` -- read-modify-write sharing on hot blocks, the
  classic producer/consumer pattern that generates invalidations to
  recently read blocks (the main source of speculation violations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import WorkloadError

# The most blocks each region of the generator's address map holds
# (repro.workloads.generator lays its regions out from these): a spec that
# asks a region for more is rejected, so regions are disjoint by
# construction.  They also keep every bounded draw of trace generation
# within the 32-bit range it is exact for.
#: locks; lock ids sit below the lock data.
MAX_LOCKS = 9_000
#: ``num_locks * blocks_per_lock``; lock data sits below the counters.
MAX_LOCK_DATA_BLOCKS = 40_000
#: lock-free counters; they sit below the migratory blocks.
MAX_COUNTER_BLOCKS = 10_000
#: migratory blocks; they sit below the shared heap.
MAX_MIGRATORY_BLOCKS = 40_000
#: the shared heap; it sits below the scenario pattern regions.
MAX_SHARED_BLOCKS = 100_000
#: one thread's private region; the next thread's region starts above it.
MAX_PRIVATE_BLOCKS = 1_000_000


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic workload."""

    name: str
    description: str = ""

    # -- scale ---------------------------------------------------------------
    ops_per_thread: int = 20_000

    # -- instruction mix (fractions of non-synchronisation operations) -------
    load_fraction: float = 0.42
    store_fraction: float = 0.28
    compute_fraction: float = 0.30
    #: mean cycles per compute bundle (geometric distribution).
    compute_run_mean: float = 3.0

    # -- synchronisation -------------------------------------------------------
    #: mean number of operations between critical sections.
    sync_interval: float = 200.0
    #: mean operations inside a critical section.
    critical_section_len: float = 6.0
    #: number of distinct locks (fewer locks => more contention).
    num_locks: int = 64
    #: data blocks protected by each lock (accessed inside its section).
    blocks_per_lock: int = 4
    #: probability that a critical section uses a lock from the thread's own
    #: partition of the lock space rather than a uniformly random lock.
    #: Real servers partition most locking (per-connection, per-transaction
    #: state); only the remainder is truly contended across cores.  A
    #: trace-driven model has no lock hand-off causality, so without this
    #: knob every acquire would be a potential cross-core conflict.
    lock_affinity: float = 0.75

    # -- memory footprint and locality ------------------------------------------
    #: private blocks per thread.
    private_blocks: int = 2_048
    #: globally shared blocks.
    shared_blocks: int = 8_192
    #: fraction of data accesses that go to the shared region.
    shared_fraction: float = 0.25
    #: probability that an access reuses a recently touched block.
    locality: float = 0.80
    #: size of the per-region reuse window (blocks).
    reuse_window: int = 32

    # -- store behaviour -----------------------------------------------------------
    #: probability that a store starts a burst of streaming stores.
    store_burst_prob: float = 0.05
    #: mean length of a store burst (consecutive blocks).
    store_burst_len: float = 4.0

    # -- sharing style ---------------------------------------------------------------
    #: fraction of shared accesses that are migratory read-modify-writes.
    migratory_fraction: float = 0.10
    #: number of hot migratory blocks.
    migratory_blocks: int = 64

    # -- lock-free synchronisation -----------------------------------------------------
    #: probability that a background operation is a standalone atomic
    #: (e.g. an atomic counter increment, no fence attached).  These are the
    #: operations that make TSO pay a store-buffer drain where RMO only
    #: waits for the atomic's own block.
    lockfree_atomic_prob: float = 0.0
    #: number of shared counter blocks targeted by lock-free atomics.
    atomic_counter_blocks: int = 32

    def __post_init__(self) -> None:
        fractions = (self.load_fraction, self.store_fraction, self.compute_fraction)
        if any(f < 0 for f in fractions):
            raise WorkloadError("instruction-mix fractions must be non-negative")
        if abs(sum(fractions) - 1.0) > 1e-6:
            raise WorkloadError(
                f"instruction-mix fractions must sum to 1.0, got {sum(fractions):.3f}"
            )
        if self.ops_per_thread <= 0:
            raise WorkloadError("ops_per_thread must be positive")
        if self.sync_interval <= 0:
            raise WorkloadError("sync_interval must be positive")
        # Geometric means: each draws with probability 1 / mean, which
        # must lie in (0, 1].
        for name in ("compute_run_mean", "critical_section_len", "store_burst_len"):
            value = getattr(self, name)
            if not value >= 1.0:
                raise WorkloadError(f"{name} must be at least 1, got {value}")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise WorkloadError("shared_fraction must lie in [0, 1]")
        if not 0.0 <= self.locality <= 1.0:
            raise WorkloadError("locality must lie in [0, 1]")
        if not 0.0 <= self.migratory_fraction <= 1.0:
            raise WorkloadError("migratory_fraction must lie in [0, 1]")
        for name, most in (("num_locks", MAX_LOCKS),
                           ("blocks_per_lock", MAX_LOCK_DATA_BLOCKS),
                           ("atomic_counter_blocks", MAX_COUNTER_BLOCKS),
                           ("migratory_blocks", MAX_MIGRATORY_BLOCKS),
                           ("shared_blocks", MAX_SHARED_BLOCKS),
                           ("private_blocks", MAX_PRIVATE_BLOCKS)):
            value = getattr(self, name)
            if not 1 <= value <= most:
                raise WorkloadError(f"{name} must lie in [1, {most:,}], got {value}")
        if self.num_locks * self.blocks_per_lock > MAX_LOCK_DATA_BLOCKS:
            raise WorkloadError(
                f"num_locks x blocks_per_lock must be at most "
                f"{MAX_LOCK_DATA_BLOCKS:,}, got {self.num_locks * self.blocks_per_lock:,}")
        if not 0.0 <= self.lockfree_atomic_prob <= 1.0:
            raise WorkloadError("lockfree_atomic_prob must lie in [0, 1]")
        if not 0.0 <= self.lock_affinity <= 1.0:
            raise WorkloadError("lock_affinity must lie in [0, 1]")

    def scaled(self, ops_per_thread: int) -> "WorkloadSpec":
        """Return a copy of this spec with a different trace length."""
        import dataclasses

        return dataclasses.replace(self, ops_per_thread=ops_per_thread)

    def describe(self) -> Dict[str, str]:
        """Printable summary (used by the Figure 7 table)."""
        return {
            "name": self.name,
            "description": self.description,
            "sync interval": f"{self.sync_interval:.0f} ops",
            "locks": str(self.num_locks),
            "store fraction": f"{self.store_fraction:.2f}",
            "shared fraction": f"{self.shared_fraction:.2f}",
            "footprint": f"{self.private_blocks} private + {self.shared_blocks} shared blocks",
        }
