"""Network latency model for coherence transactions.

Times each network leg of a coherence transaction (requester -> home
directory -> possibly a remote owner and/or sharers -> requester), using
the torus hop distances and the per-hop latency from the system
configuration.  The memory system's transaction engine adds the rest:
the directory occupancy, the L2 hit latency and, on an L2 miss, the
main-memory latency; invalidations to sharers proceed in parallel, so
the worst sharer round trip (home -> sharer -> requester ack) counts.

Two traversal modes exist (``InterconnectConfig.contention``):

* ``"none"`` -- the paper's contention-free network.  :meth:`LatencyModel.
  traverse` is pure: ``arrival = depart + hops * hop_latency``.
* ``"queued"`` -- every directed link on the dimension-order route, plus
  the destination's ejection port, is a FIFO resource that one message
  occupies for ``link_occupancy`` cycles.  A message departing while a
  link is busy waits for it; the extra wait is surfaced as
  ``contention_cycles`` for diagnostics.  See DESIGN.md section 4.
"""

from __future__ import annotations

from typing import Optional

from ..config import SystemConfig
from .topology import TorusTopology


class LatencyModel:
    """Times single network legs of coherence transactions."""

    def __init__(self, config: SystemConfig, topology: Optional[TorusTopology] = None) -> None:
        self._topology = topology if topology is not None else TorusTopology(config.interconnect)
        self._hop = config.interconnect.hop_latency
        # The torus is small (at most 64 nodes), so the full one-way
        # latency matrix is precomputed once and network() becomes two list
        # indexes instead of a hop computation per transaction leg.
        nodes = self._topology.num_nodes
        self._net = [[self._topology.hops(src, dst) * self._hop
                      for dst in range(nodes)] for src in range(nodes)]
        self._queued = config.interconnect.contention == "queued"
        self._occupancy = config.interconnect.link_occupancy
        #: per-directed-link free times (``node * 4 + direction``), plus one
        #: ejection-port slot per node at the tail of the array.
        self._link_free = [0] * (nodes * 5) if self._queued else []
        #: cycles messages spent queued behind busy links (diagnostics).
        self.contention_cycles = 0

    @property
    def topology(self) -> TorusTopology:
        return self._topology

    @property
    def contended(self) -> bool:
        """True when the queued contention model is active."""
        return self._queued

    def network(self, src: int, dst: int) -> int:
        """One-way *uncontended* network latency between two nodes."""
        return self._net[src][dst]

    def traverse(self, src: int, dst: int, depart: int) -> int:
        """Arrival time of a message leaving ``src`` for ``dst`` at ``depart``.

        Under ``contention="none"`` this is pure arithmetic and equals
        ``depart + network(src, dst)``.  Under ``contention="queued"`` the
        message claims every directed link of the dimension-order route in
        order (waiting for each to free), then the destination's ejection
        port, and the claimed resources stay busy for ``link_occupancy``
        cycles behind it.  Each physical message must traverse exactly
        once: the call mutates link state.
        """
        if not self._queued:
            return depart + self._net[src][dst]
        if src == dst:
            return depart
        free = self._link_free
        occupancy = self._occupancy
        time = depart
        for link in self._topology.route(src, dst):
            start = free[link]
            if start > time:
                self.contention_cycles += start - time
            else:
                start = time
            free[link] = start + occupancy
            time = start + self._hop
        eject = self._topology.num_nodes * 4 + dst
        start = free[eject]
        if start > time:
            self.contention_cycles += start - time
        else:
            start = time
        free[eject] = start + occupancy
        return start
