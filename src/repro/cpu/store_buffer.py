"""Post-retirement store buffers.

Two organisations are modelled, matching Figure 2 / Figure 6 of the paper:

* :class:`FIFOStoreBuffer` -- word-granularity (8-byte), age-ordered buffer
  used by the conventional SC and TSO implementations.  Entries leave the
  buffer strictly in order, so an entry is released only once *its own*
  write permission has arrived *and* every older entry has been released.

* :class:`CoalescingStoreBuffer` -- block-granularity, unordered buffer used
  by the conventional RMO implementation, by InvisiFence, and (for pending
  misses) by ASO.  Stores to a block with a pending entry coalesce into it,
  except that speculative and non-speculative stores to the same block are
  never merged (Section 3.1), mirroring InvisiFence's rule that protects
  non-speculative data from being flash-invalidated on abort.

Because the memory system is synchronous, the completion time of a store's
write permission is known at insertion time; the buffer therefore only does
bookkeeping: capacity, release ordering, drain times, and flash-invalidation
of speculative entries on abort.

Timing queries (``is_empty``, ``drain_time``, ...) are *non-destructive*:
they may legitimately be asked about future instants (e.g. "will the buffer
be empty when this op finishes?") as well as about the present (e.g. by the
conflict-resolution path of another core), so they must never throw away
entries.  Physical cleanup of long-dead entries happens only on insertion,
using the inserting core's own (monotonically advancing) clock.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional

from ..config import StoreBufferConfig, StoreBufferKind
from ..errors import StoreBufferError
from ..memory.address import WORD_BYTES, block_mask


@dataclass(slots=True)
class StoreBufferEntry:
    """One buffered store (word or block granularity).

    The coalescing buffer holds one per entry; the FIFO buffer holds none
    and builds them only as views, in :meth:`FIFOStoreBuffer.entries`.
    """

    address: int
    #: time at which the entry leaves the buffer (its write permission has
    #: arrived and, in a FIFO, every older entry has left).
    release_time: int
    #: id of the checkpoint/chunk that issued the store, if speculative.
    checkpoint_id: Optional[int] = None

    @property
    def speculative(self) -> bool:
        """True while the store belongs to an uncommitted checkpoint."""
        return self.checkpoint_id is not None


class StoreBufferBase:
    """Shared bookkeeping and interface of both store buffer organisations."""

    def __init__(self, config: StoreBufferConfig) -> None:
        self._config = config
        #: number of entries (read-only).
        self.capacity = config.entries
        #: AND-mask to this buffer's entry granularity: a word here, an
        #: entry-sized block in the coalescing buffer.
        self._address_mask = ~(WORD_BYTES - 1)
        #: largest release time over current entries (0 when empty); kept so
        #: the per-op ``is_empty``/``drain_time`` queries are O(1).  Entry
        #: removal can only drop already-released entries (purge) or trigger
        #: a recompute (flash invalidation), so the maximum stays exact.
        #: Read-only outside this module: the buffer is empty at ``now``
        #: exactly when ``max_release <= now``, which the fast engine's op
        #: kernels test without a call.
        self.max_release = 0
        self.peak_occupancy = 0
        self.total_inserted = 0
        self.flash_invalidated = 0

    @property
    def config(self) -> StoreBufferConfig:
        return self._config

    # -- timing queries -------------------------------------------------------

    def is_empty(self, now: int) -> bool:
        # O(1): every current entry's release time is <= max_release.
        return self.max_release <= now

    def drain_time(self, now: int) -> int:
        """Time at which the buffer will be empty, given current contents."""
        # O(1): the live entry with the largest release time is the last to
        # leave, and that maximum is tracked incrementally.
        return self.max_release if self.max_release > now else now

    def occupancy(self, now: int) -> int:
        """Number of entries still resident at ``now``."""
        raise NotImplementedError

    def is_full(self, now: int) -> bool:
        """True when every entry is still resident at ``now``."""
        raise NotImplementedError

    def next_free_slot_time(self, now: int) -> int:
        """Earliest time at which at least one entry will be free."""
        raise NotImplementedError

    def drain_time_for_checkpoint(self, checkpoint_id: int, now: int) -> int:
        """Time at which all stores issued by one checkpoint have completed."""
        raise NotImplementedError

    def has_block(self, addr: int, now: int) -> bool:
        """True when any live entry covers ``addr`` at this buffer's granularity."""
        raise NotImplementedError

    def entries(self, now: Optional[int] = None) -> List[StoreBufferEntry]:
        """The entries held (all of them, or those live at ``now``), oldest first."""
        raise NotImplementedError

    # -- speculation support ---------------------------------------------------

    def flash_invalidate_speculative(self, now: int,
                                     checkpoint_id: Optional[int] = None) -> int:
        """Drop live speculative entries (abort path); returns number dropped.

        An entry released at or before ``now`` has left the buffer, so it
        stays (until the next insertion purges it) and is not counted.
        """
        raise NotImplementedError

    def mark_all_non_speculative(self, now: int,
                                 checkpoint_id: Optional[int] = None) -> None:
        """Commit path: buffered speculative stores become ordinary stores."""
        raise NotImplementedError

    # -- insertion -------------------------------------------------------------

    def add_store(self, addr: int, now: int, completion_time: int,
                  checkpoint_id: Optional[int] = None) -> int:
        """Insert a store; return its release time.

        A store with a ``checkpoint_id`` is speculative: it belongs to that
        checkpoint until a commit or an abort.

        The caller must have checked capacity first.  One pass: drop the
        entries released at or before ``now`` (the physical cleanup, done
        with the inserting core's own clock, which never runs ahead of the
        queries other components make about the present), raise
        :class:`StoreBufferError` when the live entries fill the buffer,
        and append the new entry; a coalescing buffer may instead merge
        the store into a live entry.  Every entry left after the purge is
        live, so the occupancy that ``peak_occupancy`` tracks is just the
        number of entries held.  The release time is when the store
        becomes visible: it leaves the buffer then.
        """
        raise NotImplementedError


class FIFOStoreBuffer(StoreBufferBase):
    """Word-granularity, age-ordered store buffer (conventional SC/TSO).

    Holds no object per store: three parallel lists, oldest entry first,
    give each entry's release time (``releases``), word address and
    checkpoint id (``None`` for a non-speculative store).  Release times
    are a running maximum over insertion order, so ``releases`` is
    non-decreasing: the entries live at ``now`` are the suffix after
    ``bisect_right(releases, now)``, and every occupancy, capacity and
    purge question is one bisection.
    """

    def __init__(self, config: StoreBufferConfig) -> None:
        if config.kind is not StoreBufferKind.FIFO_WORD:
            raise StoreBufferError("FIFOStoreBuffer requires a FIFO_WORD configuration")
        super().__init__(config)
        #: release times, oldest first (non-decreasing).  Read-only outside
        #: this module: the SC/TSO op kernel tests capacity on it without a
        #: call, as the kernels read ``max_release``.
        self.releases: List[int] = []
        self._addresses: List[int] = []
        self._checkpoints: List[Optional[int]] = []

    def occupancy(self, now: int) -> int:
        releases = self.releases
        return len(releases) - bisect_right(releases, now)

    def is_full(self, now: int) -> bool:
        releases = self.releases
        if len(releases) < self.capacity:
            return False
        return len(releases) - bisect_right(releases, now) >= self.capacity

    def next_free_slot_time(self, now: int) -> int:
        releases = self.releases
        first_live = bisect_right(releases, now)
        if len(releases) - first_live < self.capacity:
            return now
        # Monotone release times: the oldest live entry leaves first.
        return releases[first_live]

    def drain_time_for_checkpoint(self, checkpoint_id: int, now: int) -> int:
        releases = self.releases
        checkpoints = self._checkpoints
        # The youngest live entry of the checkpoint leaves last.
        for i in range(len(releases) - 1, bisect_right(releases, now) - 1, -1):
            if checkpoints[i] == checkpoint_id:
                return releases[i]
        return now

    def has_block(self, addr: int, now: int) -> bool:
        first_live = bisect_right(self.releases, now)
        return (addr & self._address_mask) in self._addresses[first_live:]

    def entries(self, now: Optional[int] = None) -> List[StoreBufferEntry]:
        first = 0 if now is None else bisect_right(self.releases, now)
        return [StoreBufferEntry(address, release, checkpoint)
                for address, release, checkpoint in zip(
                    self._addresses[first:], self.releases[first:],
                    self._checkpoints[first:])]

    def flash_invalidate_speculative(self, now: int,
                                     checkpoint_id: Optional[int] = None) -> int:
        releases = self.releases
        checkpoints = self._checkpoints
        first_live = bisect_right(releases, now)
        kept = [i for i in range(first_live, len(releases))
                if checkpoints[i] is None
                or (checkpoint_id is not None and checkpoints[i] != checkpoint_id)]
        dropped = len(releases) - first_live - len(kept)
        if dropped:
            addresses = self._addresses
            releases[first_live:] = [releases[i] for i in kept]
            addresses[first_live:] = [addresses[i] for i in kept]
            checkpoints[first_live:] = [checkpoints[i] for i in kept]
            self.max_release = releases[-1] if releases else 0
        self.flash_invalidated += dropped
        return dropped

    def mark_all_non_speculative(self, now: int,
                                 checkpoint_id: Optional[int] = None) -> None:
        checkpoints = self._checkpoints
        for i, owner in enumerate(checkpoints):
            if owner is not None and (checkpoint_id is None
                                      or owner == checkpoint_id):
                checkpoints[i] = None

    def add_store(self, addr: int, now: int, completion_time: int,
                  checkpoint_id: Optional[int] = None) -> int:
        # FIFO ordering: an entry can only be released after every older
        # entry has been released, so the release time is the running
        # maximum of completion times in insertion order.
        releases = self.releases
        release = completion_time
        if releases:
            if releases[-1] > release:
                release = releases[-1]
            if releases[0] <= now:
                cut = bisect_right(releases, now)
                del releases[:cut]
                del self._addresses[:cut]
                del self._checkpoints[:cut]
        elif now > release:
            release = now
        if len(releases) >= self.capacity:
            raise StoreBufferError("FIFO store buffer overflow; check is_full first")
        releases.append(release)
        self._addresses.append(addr & self._address_mask)
        self._checkpoints.append(checkpoint_id)
        self.total_inserted += 1
        if release > self.max_release:
            self.max_release = release
        if len(releases) > self.peak_occupancy:
            self.peak_occupancy = len(releases)
        return release


class CoalescingStoreBuffer(StoreBufferBase):
    """Block-granularity, unordered store buffer (RMO / InvisiFence)."""

    def __init__(self, config: StoreBufferConfig) -> None:
        if config.kind is not StoreBufferKind.COALESCING_BLOCK:
            raise StoreBufferError(
                "CoalescingStoreBuffer requires a COALESCING_BLOCK configuration"
            )
        super().__init__(config)
        self.coalesced = 0
        self._address_mask = block_mask(config.entry_bytes)
        self._entries: List[StoreBufferEntry] = []

    def _live(self, now: int) -> List[StoreBufferEntry]:
        """Entries still resident at time ``now`` (non-destructive)."""
        return [e for e in self._entries if e.release_time > now]

    def occupancy(self, now: int) -> int:
        return sum(1 for e in self._entries if e.release_time > now)

    def is_full(self, now: int) -> bool:
        # Fewer current entries than capacity can never be full; counting is
        # only needed in the (rare) at-capacity case.
        if len(self._entries) < self.capacity:
            return False
        return self.occupancy(now) >= self.capacity

    def next_free_slot_time(self, now: int) -> int:
        live = self._live(now)
        if len(live) < self.capacity:
            return now
        return min(e.release_time for e in live)

    def drain_time_for_checkpoint(self, checkpoint_id: int, now: int) -> int:
        times = [e.release_time for e in self._live(now)
                 if e.checkpoint_id == checkpoint_id]
        return max(times) if times else now

    def has_block(self, addr: int, now: int) -> bool:
        baddr = addr & self._address_mask
        for e in self._entries:
            if e.address == baddr and e.release_time > now:
                return True
        return False

    def entries(self, now: Optional[int] = None) -> List[StoreBufferEntry]:
        if now is None:
            return list(self._entries)
        return self._live(now)

    def flash_invalidate_speculative(self, now: int,
                                     checkpoint_id: Optional[int] = None) -> int:
        before = len(self._entries)
        self._entries = [
            e for e in self._entries
            if not (e.checkpoint_id is not None and e.release_time > now
                    and (checkpoint_id is None
                         or e.checkpoint_id == checkpoint_id))]
        dropped = before - len(self._entries)
        if dropped:
            self.max_release = max(
                (e.release_time for e in self._entries), default=0)
        self.flash_invalidated += dropped
        return dropped

    def mark_all_non_speculative(self, now: int,
                                 checkpoint_id: Optional[int] = None) -> None:
        for entry in self._entries:
            if checkpoint_id is None or entry.checkpoint_id == checkpoint_id:
                entry.checkpoint_id = None

    def add_store(self, addr: int, now: int, completion_time: int,
                  checkpoint_id: Optional[int] = None) -> int:
        """Coalesce into a live entry of the same block and kind, or insert.

        Speculative stores coalesce into the block's speculative entry,
        whatever its checkpoint; non-speculative ones into its
        non-speculative entry.  The scan that looks for the entry to
        coalesce into also collects the live entries; a coalescing store
        returns before the purge, so only an insertion drops released
        entries.
        """
        baddr = addr & self._address_mask
        speculative = checkpoint_id is not None
        live = []
        for existing in self._entries:
            if existing.release_time > now:
                if existing.address == baddr \
                        and (existing.checkpoint_id is not None) == speculative:
                    # Coalesce: the entry's lifetime covers the latest
                    # completion.
                    self.coalesced += 1
                    if completion_time > existing.release_time:
                        existing.release_time = completion_time
                        if completion_time > self.max_release:
                            self.max_release = completion_time
                    return existing.release_time
                live.append(existing)
        if len(live) >= self.capacity:
            raise StoreBufferError(
                "coalescing store buffer overflow; check is_full first"
            )
        # Positional, in field order: keyword arguments would make the
        # dataclass call about twice as slow.
        live.append(StoreBufferEntry(baddr, completion_time, checkpoint_id))
        self.total_inserted += 1
        self._entries = live
        if completion_time > self.max_release:
            self.max_release = completion_time
        if len(live) > self.peak_occupancy:
            self.peak_occupancy = len(live)
        return completion_time


def make_store_buffer(config: StoreBufferConfig) -> StoreBufferBase:
    """Instantiate the store buffer matching ``config``."""
    if config.kind is StoreBufferKind.FIFO_WORD:
        return FIFOStoreBuffer(config)
    return CoalescingStoreBuffer(config)
