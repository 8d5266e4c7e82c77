"""The coherent memory system.

:class:`MemorySystem` ties together the per-core L1 tag arrays, the shared
L2, the full-map directory, and the torus's one-way latency matrix.  It
exposes a *synchronous* interface: an L1 access computes the complete
latency of the corresponding coherence transaction, applies every global
state change immediately, and returns the completion time to the caller.
Cross-core timing interactions are still honoured:

* Transactions to the same block are serialised through the directory
  entry's ``busy_until`` timestamp.
* External requests that hit speculatively accessed blocks in another L1
  are reported to that core's consistency controller (the
  :class:`ExternalConflictListener`), which decides between aborting its
  speculation and -- under commit-on-violate -- deferring the requester
  while it tries to commit.  The deferral feeds back into the requester's
  completion time.
* A fill that would have to evict a speculatively accessed block first
  forces that core to commit (Section 3.2 of the paper); the resulting
  delay is charged to the requester as ``forced_commit_delay``.

The memory system never buffers store *data*; the simulator is trace
driven and only state and timing matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from ..config import SystemConfig
from ..errors import SimulationError
from ..interconnect.topology import TorusTopology
from ..memory.address import block_mask
from ..memory.block import CoherenceState
from ..memory.cache import CacheArray
from ..obs.recorder import COHERENCE_TID_BASE, active
from .directory import Directory, DirectoryEntry
from .l2 import L2Cache


_INVALID = CoherenceState.INVALID
_SHARED = CoherenceState.SHARED
_EXCLUSIVE = CoherenceState.EXCLUSIVE
_MODIFIED = CoherenceState.MODIFIED
#: the recorder's event name for each transaction type (DESIGN section 6).
_GETS = "dir.gets"
_GETM = "dir.getm"
_UPGRADE = "dir.upgrade"


@dataclass
class AccessOutcome:
    """Result of an L1 access as seen by the requesting core."""

    hit: bool
    completion_time: int
    state: CoherenceState
    #: extra cycles the requester spent waiting for its own forced
    #: speculation commit before a fill could evict a speculative block.
    forced_commit_delay: int = 0

    @property
    def miss(self) -> bool:
        return not self.hit


class ExternalConflictListener(Protocol):
    """Interface a consistency controller exposes to the memory system."""

    def on_external_conflict(self, block_addr: int, is_write: bool,
                             arrival_time: int) -> int:
        """An external request conflicts with this core's speculation.

        Returns the cycles the request is deferred: 0 when the core aborts
        its speculation, and the commit-on-violate wait otherwise.
        """
        ...  # pragma: no cover - protocol definition

    def forced_commit(self, now: int) -> int:
        """Commit speculation so a speculative block can be evicted.

        Returns the time at which the commit completes (the eviction may
        proceed at or after that time).
        """
        ...  # pragma: no cover - protocol definition


class MemorySystem:
    """Directory-coherent memory hierarchy shared by all cores."""

    def __init__(self, config: SystemConfig, fast_path: bool = True,
                 recorder=None) -> None:
        self._config = config
        #: one-way network latency, ``_net[src][dst]``: each leg of a
        #: transaction adds one entry (the network is contention-free).
        self._net = TorusTopology(config.interconnect).latency
        self._l1s: List[CacheArray] = [CacheArray(config.l1) for _ in range(config.num_cores)]
        #: each L1's line index (block address -> block), read by the hit
        #: probes so a hit costs one dict lookup and no CacheArray call.
        self._l1_lines = [l1.lines for l1 in self._l1s]
        self._hit_latency = config.l1.hit_latency
        self._l2 = L2Cache(config.l2)
        self._directory = Directory(config.block_bytes)
        #: the directory's entry map, read by the transaction engine
        #: without a call (DESIGN section 9).
        self._dir_entries = self._directory.entries
        self._dir_latency = config.directory_latency
        #: directory lookup plus L2 data access, without and with memory.
        self._l2_hit_cost = config.directory_latency + config.l2.hit_latency
        self._l2_miss_cost = self._l2_hit_cost + config.memory_latency
        #: an owner's share of a three-hop forward: directory plus L1 hit.
        self._forward_cost = config.directory_latency + config.l1.hit_latency
        self._prefetch_lead = config.store_prefetch_lead
        self._listeners: Dict[int, ExternalConflictListener] = {}
        self._block_mask = block_mask(config.block_bytes)
        self._block_bytes = config.block_bytes
        self._num_nodes = config.interconnect.num_nodes
        #: when True, :meth:`load_hit_time`/:meth:`store_hit_time` resolve
        #: sufficient-state L1 hits in one call; when False they always
        #: decline, forcing every access down the reference path through
        #: :meth:`request`.
        self._fast = fast_path
        #: observability slot: ``None`` (telemetry off) or an enabled
        #: recorder, checked with a single ``if``.  Only the transaction
        #: engine hooks it, never the hit paths; its ``dir.*`` instant is
        #: the only record of a transaction's history.
        self._obs = active(recorder)
        # simple per-core counters
        self.l1_hits = [0] * config.num_cores
        self.l1_misses = [0] * config.num_cores
        self.upgrades = [0] * config.num_cores
        self.conflicts_detected = 0

    # -- plumbing ----------------------------------------------------------

    @property
    def config(self) -> SystemConfig:
        return self._config

    @property
    def fast(self) -> bool:
        """True when the hit probes answer (the fast engine's memory system)."""
        return self._fast

    @property
    def l2(self) -> L2Cache:
        return self._l2

    @property
    def directory(self) -> Directory:
        return self._directory

    def l1(self, core_id: int) -> CacheArray:
        return self._l1s[core_id]

    def register_listener(self, core_id: int, listener: ExternalConflictListener) -> None:
        """Register the consistency controller responsible for ``core_id``."""
        self._listeners[core_id] = listener

    def release(self) -> None:
        """Forget every listener, once the run is over.

        Each registered controller holds this memory system, so the map
        ties them into one reference cycle; dropping it lets the machine
        be freed by reference counting.
        """
        self._listeners.clear()

    # -- public access API -------------------------------------------------

    def request(self, core_id: int, addr: int, is_write: bool, now: int,
                spec_checkpoint: Optional[int] = None) -> Tuple[int, int]:
        """Perform a load (``is_write=False``) or store access for a core.

        Returns ``(completion, forced_commit_delay)``: the time at which
        the data (for loads) or the write permission (for stores) is
        available to the requester, and the cycles of that latency the
        requester spent on its own forced speculation commit before a fill
        could evict a speculative block.  When ``spec_checkpoint`` is given
        the access is speculative and the block's speculatively-read /
        speculatively-written bit is set, tagged with that checkpoint id.
        """
        baddr = addr & self._block_mask
        block = self._l1_lines[core_id].get(baddr)
        if block is not None and block.state is not _INVALID:
            l1 = self._l1s[core_id]
            l1.lru_clock += 1
            block.last_use = l1.lru_clock
            if not is_write:
                self.l1_hits[core_id] += 1
                if spec_checkpoint is not None:
                    block.mark_spec_read(spec_checkpoint)
                return now + self._hit_latency, 0
            state = block.state
            if state is _MODIFIED or state is _EXCLUSIVE:
                self.l1_hits[core_id] += 1
                return self._write_hit_time(core_id, block, now,
                                            spec_checkpoint), 0
            # Present but Shared: upgrade miss.
            self.upgrades[core_id] += 1
            return self._transaction(core_id, baddr, _UPGRADE, True, now,
                                     spec_checkpoint)
        self.l1_misses[core_id] += 1
        if is_write:
            return self._transaction(core_id, baddr, _GETM, True, now,
                                     spec_checkpoint)
        return self._transaction(core_id, baddr, _GETS, False, now,
                                 spec_checkpoint)

    def access(self, core_id: int, addr: int, is_write: bool, now: int,
               spec_checkpoint: Optional[int] = None) -> AccessOutcome:
        """:meth:`request`, described by an :class:`AccessOutcome`.

        For analysis and tests: the outcome carries whether the access hit
        and the requester's resulting block state.  The simulator itself
        calls :meth:`request`.
        """
        l1 = self._l1s[core_id]
        hit = l1.is_writable(addr) if is_write else l1.contains(addr)
        completion, forced = self.request(core_id, addr, is_write, now,
                                          spec_checkpoint)
        block = l1.lookup(addr, touch=False)
        return AccessOutcome(hit=hit, completion_time=completion,
                             state=block.state if block is not None else _INVALID,
                             forced_commit_delay=forced)

    # -- hit probes -----------------------------------------------------------
    #
    # The hot loops of every controller boil down to "does this access hit a
    # line already in a sufficient state, and when does it complete?".  These
    # two methods answer exactly that with a plain int, in one call, and
    # decline (return None) in every other case.  A declined probe has no
    # side effect at all -- no LRU stamp, no counter -- so the caller's
    # fallback to :meth:`request` leaves the L1 exactly as a direct request
    # would have.

    def load_hit_time(self, core_id: int, addr: int, now: int,
                      spec_checkpoint: Optional[int] = None) -> Optional[int]:
        """Completion time of a load that hits, or ``None`` (take the slow path)."""
        if not self._fast:
            return None
        block = self._l1_lines[core_id].get(addr & self._block_mask)
        if block is None or block.state is _INVALID:
            return None
        l1 = self._l1s[core_id]
        l1.lru_clock += 1
        block.last_use = l1.lru_clock
        self.l1_hits[core_id] += 1
        if spec_checkpoint is not None and block.spec_read is None:
            block.mark_spec_read(spec_checkpoint)
        return now + self._hit_latency

    def store_hit_time(self, core_id: int, addr: int, now: int,
                       spec_checkpoint: Optional[int] = None) -> Optional[int]:
        """Completion time of a store that hits writable, or ``None``."""
        if not self._fast:
            return None
        block = self._l1_lines[core_id].get(addr & self._block_mask)
        if block is None:
            return None
        state = block.state
        if state is not _MODIFIED and state is not _EXCLUSIVE:
            return None
        l1 = self._l1s[core_id]
        l1.lru_clock += 1
        block.last_use = l1.lru_clock
        self.l1_hits[core_id] += 1
        if spec_checkpoint is None:
            block.state = _MODIFIED
            block.dirty = True
            return now + self._hit_latency
        if block.spec_written is None:
            if block.dirty:
                # First speculative write to a dirty block: clean it first.
                return self._write_hit_time(core_id, block, now, spec_checkpoint)
            block.mark_spec_written(spec_checkpoint)
        block.state = _MODIFIED
        return now + self._hit_latency

    def is_write_hit(self, core_id: int, addr: int) -> bool:
        """Would a store to ``addr`` complete immediately in the L1?"""
        return self._l1s[core_id].is_writable(addr)

    def contains(self, core_id: int, addr: int) -> bool:
        return self._l1s[core_id].contains(addr)

    # -- write-hit path (including speculative dirty-block cleaning) -------

    def _write_hit_time(self, core_id: int, block, now: int,
                        spec_checkpoint: Optional[int]) -> int:
        """Apply a write hit's state changes; return its completion time."""
        if spec_checkpoint is None:
            block.state = _MODIFIED
            block.dirty = True
            return now + self._hit_latency
        # Speculative store.  If the block is non-speculatively dirty, the
        # only copy of the pre-speculative data is in this L1, so a clean
        # writeback pushes it to the L2 before the speculative value may
        # overwrite it (Section 3.2).  The store waits in the store buffer
        # for the cleaning writeback to finish.
        completion = now + self._hit_latency
        if block.dirty and block.spec_written is None:
            self._l2.install(block.address)
            block.dirty = False
            completion = now + self._config.clean_writeback_latency
        block.mark_spec_written(spec_checkpoint)
        block.state = _MODIFIED
        return completion

    # -- the coherence transaction engine ----------------------------------
    #
    # One frame per transaction, shared by both engines: the directory
    # entry and the L1 line checks are read here, not through Directory or
    # CacheArray calls, and each network leg adds one entry of the latency
    # matrix.  Only the L2 lookup and fills, the L1 fill (one install,
    # which picks its own victim), the victim's directory and L2 update
    # (_evict), and the listener hooks (conflicts, forced commit) are
    # calls.

    def _transaction(self, core_id: int, baddr: int, event: str,
                     is_write: bool, now: int,
                     spec_checkpoint: Optional[int]) -> Tuple[int, int]:
        """Run one coherence transaction; see :meth:`request` for the result.

        ``event`` names the transaction's ``dir.*`` instant.
        """
        home = (baddr // self._block_bytes) % self._num_nodes
        entry = self._dir_entries.get(baddr)
        if entry is None:
            entry = self._dir_entries[baddr] = DirectoryEntry(baddr)
        l1_lines = self._l1_lines
        net = self._net

        # The request travels to the home node and is serialised behind
        # any in-flight transaction for the same block.
        arrive_home = now + net[core_id][home]
        start = entry.busy_until if entry.busy_until > arrive_home else arrive_home

        # Clean up stale directory information about the requester itself
        # (e.g. after an abort invalidated the L1 copy without notifying the
        # directory, or after a silent eviction).
        if entry.owner == core_id:
            own = l1_lines[core_id].get(baddr)
            if own is None or own.state is _INVALID:
                entry.owner = None
        # The presence vector, without the requester's bit, stays in a
        # local until the directory update below writes it back.
        bit = 1 << core_id
        sharers = entry.sharers & ~bit

        owner = entry.owner
        if owner is not None:
            # Three-hop: forward to the owner.  The probe leg home -> owner
            # is one physical message; its arrival anchors both conflict
            # detection and the forwarded data response.
            assert owner != core_id
            probe_arrival = start + net[home][owner]
            completion = (probe_arrival + self._forward_cost
                          + net[owner][core_id])
            owner_block = l1_lines[owner].get(baddr)
            if owner_block is not None and owner_block.state is not _INVALID:
                # An external write conflicts with either speculative bit,
                # an external read only with the speculatively-written one.
                if owner_block.spec_written is not None or (
                        is_write and owner_block.spec_read is not None):
                    completion += self._resolve_conflict(owner, baddr, is_write,
                                                         probe_arrival)
                if is_write:
                    owner_block.invalidate()
                else:
                    owner_block.state = _SHARED
                    owner_block.dirty = False
            # The owner's (pre-speculative) data is written back to the L2.
            self._l2.install(baddr)
            l2_hit = True
            entry.owner = None
            if not is_write:
                sharers |= 1 << owner | bit
        else:
            l2_hit = self._l2.contains(baddr)
            completion = start + (self._l2_hit_cost if l2_hit
                                  else self._l2_miss_cost) + net[home][core_id]
            if not l2_hit:
                self._l2.install(baddr)

        # A write invalidates every other sharer in parallel, in ascending
        # core order (lowest set bit first); the last ack sets the
        # completion.  The requester's own bit is clear, so every set bit
        # is another core.
        invalidated = sharers if is_write else 0
        pending = invalidated
        while pending:
            low = pending & -pending
            pending ^= low
            sharer = low.bit_length() - 1
            arrival = start + net[home][sharer]
            ack = arrival + net[sharer][core_id]
            sharer_block = l1_lines[sharer].get(baddr)
            if sharer_block is not None and sharer_block.state is not _INVALID:
                if sharer_block.spec_read is not None \
                        or sharer_block.spec_written is not None:
                    ack += self._resolve_conflict(sharer, baddr, True, arrival)
                sharer_block.invalidate()
            if ack > completion:
                completion = ack

        # Directory occupancy for the next transaction to this block.
        entry.busy_until = start + self._dir_latency

        # Update directory state.  Exclusive fills are tracked as ownership so
        # that a later silent E->M write hit cannot leave stale sharers.
        if is_write:
            sharers = 0
            entry.owner = core_id
            new_state = _MODIFIED
        elif entry.owner is None and not sharers:
            entry.owner = core_id
            new_state = _EXCLUSIVE
        else:
            sharers |= bit
            new_state = _SHARED
        entry.sharers = sharers

        # Fill the requester's L1.
        l1 = self._l1s[core_id]
        block, victim = l1.install(baddr, new_state, is_write)
        forced_delay = 0
        if block is None:
            # Every way of the set is speculative: the requester commits
            # first (Section 3.2), and the fill waits for the commit.
            listener = self._listeners.get(core_id)
            if listener is None:
                raise SimulationError(
                    "a fill requires evicting speculative state but no "
                    f"controller is registered for core {core_id}"
                )
            forced_delay = max(0, listener.forced_commit(now) - now)
            completion += forced_delay
            block, victim = l1.install(baddr, new_state, is_write)
            if block is None:
                raise SimulationError(
                    "forced commit did not release any way in the target set"
                )
        if victim is not None:
            self._evict(core_id, victim)
        if spec_checkpoint is not None:
            if is_write:
                block.mark_spec_written(spec_checkpoint)
            else:
                block.mark_spec_read(spec_checkpoint)

        if is_write and self._prefetch_lead:
            # Store prefetching: by retirement the write miss has already
            # been outstanding for a while, so the retirement stage observes
            # a shorter remaining latency.
            earliest = now + self._hit_latency + forced_delay
            completion = max(earliest, completion - self._prefetch_lead)

        if entry.owner is not None and sharers:
            entry.check()  # raises: single writer or multiple readers
        if self._obs is not None:
            # The transaction's whole history, as one instant at its start:
            # one core's store misses overlap in time, so spans on its
            # track would not nest.
            ids = [sharer for sharer in range(invalidated.bit_length())
                   if invalidated >> sharer & 1]
            self._obs.count("coherence.transactions")
            if ids:
                self._obs.count("coherence.invalidations", len(ids))
                self._obs.observe("coherence.inval_fanout", len(ids))
            self._obs.sim_instant(
                COHERENCE_TID_BASE + core_id, event, start,
                {"block": hex(baddr), "home": home, "issue": now,
                 "done": completion, "l2_hit": l2_hit, "owner": owner,
                 "invalidated": ids})
        return completion, forced_delay

    def _resolve_conflict(self, victim: int, baddr: int, is_write: bool,
                          arrival: int) -> int:
        """Ask the victim's controller how long it defers the request."""
        self.conflicts_detected += 1
        listener = self._listeners.get(victim)
        if listener is None:
            return 0
        return max(0, listener.on_external_conflict(baddr, is_write, arrival))

    def _evict(self, core_id: int, victim) -> None:
        """Update directory/L2 state when an L1 block is evicted."""
        entry = self._dir_entries.get(victim.address)
        if entry is not None:
            entry.sharers &= ~(1 << core_id)
            if entry.owner == core_id:
                entry.owner = None
        # Dirty or clean, the victim goes to the L2: it may already hold
        # the block, and installing it keeps the latency model simple.
        self._l2.install(victim.address)

    # -- debugging helpers --------------------------------------------------

    def check_invariants(self) -> None:
        """Cross-check directory state against L1 contents (tests only)."""
        self._directory.check_invariants()
        for entry in self._directory:
            if entry.owner is not None:
                block = self._l1s[entry.owner].lookup(entry.address, touch=False)
                if block is not None and not block.state.is_writable:
                    raise SimulationError(
                        f"directory says core {entry.owner} owns {entry.address:#x} "
                        f"but its L1 holds it in state {block.state}"
                    )
