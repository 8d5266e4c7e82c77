"""2-D torus topology.

The paper's system is a 4x4 2-D torus with 25 ns per-hop latency; the
machine-scaling experiments lay out anything from a 1xN ring up to an 8x8
torus (see :func:`repro.config.torus_geometry`).  This module provides
node placement, minimal-hop distances, and the one-way latency matrix the
coherence transaction engine reads: the network is contention-free, so a
message from ``src`` to ``dst`` always takes ``hops * hop_latency`` cycles
(DESIGN.md section 4).
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import InterconnectConfig
from ..errors import ConfigurationError


class TorusTopology:
    """Node coordinates and wrap-around hop distances on a 2-D torus."""

    def __init__(self, config: InterconnectConfig) -> None:
        self._width = config.mesh_width
        self._height = config.mesh_height
        nodes = range(self.num_nodes)
        #: one-way network latency in cycles, ``latency[src][dst]``.  The
        #: torus has at most 64 nodes, so the whole matrix is built once
        #: and a network leg costs two list indexes.
        self.latency: List[List[int]] = [
            [self.hops(src, dst) * config.hop_latency for dst in nodes]
            for src in nodes]

    @property
    def num_nodes(self) -> int:
        return self._width * self._height

    def coordinates(self, node: int) -> Tuple[int, int]:
        """Return the (x, y) position of ``node``."""
        self._check_node(node)
        return node % self._width, node // self._width

    def hops(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes, with wrap-around links."""
        sx, sy = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        xdist = abs(sx - dx)
        ydist = abs(sy - dy)
        return (min(xdist, self._width - xdist)
                + min(ydist, self._height - ydist))

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ConfigurationError(
                f"node {node} outside torus of {self.num_nodes} nodes"
            )
