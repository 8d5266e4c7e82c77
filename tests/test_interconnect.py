"""Tests for repro.interconnect (torus topology and its latency matrix)."""

import pytest

from repro.config import InterconnectConfig, paper_config
from repro.errors import ConfigurationError
from repro.interconnect.topology import TorusTopology


def torus(width: int = 4, height: int = 4, hop: int = 100) -> TorusTopology:
    return TorusTopology(InterconnectConfig(mesh_width=width, mesh_height=height,
                                            hop_latency=hop))


class TestTopology:
    def test_coordinates_roundtrip(self):
        topo = torus()
        for node in range(topo.num_nodes):
            x, y = topo.coordinates(node)
            assert 0 <= x < 4 and 0 <= y < 4
            assert y * 4 + x == node

    def test_rejects_invalid_node(self):
        topo = torus()
        with pytest.raises(ConfigurationError):
            topo.coordinates(16)
        with pytest.raises(ConfigurationError):
            topo.hops(0, -1)

    def test_distance_to_self_is_zero(self):
        topo = torus()
        for node in range(topo.num_nodes):
            assert topo.hops(node, node) == 0

    def test_distance_is_symmetric(self):
        topo = torus()
        for a in range(topo.num_nodes):
            for b in range(topo.num_nodes):
                assert topo.hops(a, b) == topo.hops(b, a)

    def test_adjacent_nodes_one_hop(self):
        topo = torus()
        assert topo.hops(0, 1) == 1
        assert topo.hops(0, 4) == 1

    def test_wraparound_links(self):
        topo = torus()
        # Node 0 and node 3 are adjacent through the wrap-around link.
        assert topo.hops(0, 3) == 1
        # Opposite corners of a 4x4 torus are at most 2+2 hops away.
        assert topo.hops(0, 15) <= 4

    def test_max_distance_on_4x4_torus(self):
        topo = torus()
        assert max(topo.hops(0, n) for n in range(16)) == 4

    def test_triangle_inequality(self):
        topo = torus()
        for a in range(16):
            for b in range(16):
                for c in (0, 5, 10, 15):
                    assert topo.hops(a, b) <= topo.hops(a, c) + topo.hops(c, b)


class TestEdgeGeometries:
    """1xN rings, non-square tori, and the full 8x8 machine."""

    def test_ring_1xn_wraparound(self):
        ring = torus(width=1, height=8)
        assert ring.num_nodes == 8
        # Around an 8-ring the far side is 4 hops, wrapping either way.
        assert ring.hops(0, 4) == 4
        assert ring.hops(0, 7) == 1
        assert ring.hops(0, 5) == 3
        assert max(ring.hops(0, n) for n in range(8)) == 4

    def test_ring_has_no_x_movement(self):
        ring = torus(width=1, height=6)
        for node in range(6):
            x, _ = ring.coordinates(node)
            assert x == 0

    def test_non_square_2x4(self):
        topo = torus(width=2, height=4)
        # Wrap-around makes the farthest node 1 + 2 hops away.
        assert max(topo.hops(0, n) for n in range(8)) == 3
        assert topo.hops(0, 7) == 1 + 1  # one X wrap + one Y wrap

    def test_non_square_4x8(self):
        topo = torus(width=4, height=8)
        assert topo.num_nodes == 32
        # Worst case: half-way around both rings.
        assert max(topo.hops(0, n) for n in range(32)) == 2 + 4

    def test_8x8_wraparound_distances(self):
        topo = torus(width=8, height=8)
        assert topo.num_nodes == 64
        # Opposite corner reached through both wrap links.
        assert topo.hops(0, 63) == 2
        # The true antipode (4, 4) is the worst case at 4 + 4 hops.
        assert topo.coordinates(36) == (4, 4)
        assert topo.hops(0, 36) == 8
        assert max(topo.hops(0, n) for n in range(64)) == 8

    def test_8x8_symmetry_and_triangle(self):
        topo = torus(width=8, height=8)
        probes = (0, 7, 28, 36, 63)
        for a in probes:
            for b in probes:
                assert topo.hops(a, b) == topo.hops(b, a)
                for c in (0, 27, 63):
                    assert topo.hops(a, b) <= topo.hops(a, c) + topo.hops(c, b)


def torus_distances(width: int, height: int, src: int) -> dict:
    """Shortest paths from ``src`` over the torus's links, by breadth-first
    search: each node links to its x and y neighbours, wrapping around."""
    distance = {src: 0}
    frontier = [src]
    while frontier:
        reached = []
        for node in frontier:
            x, y = node % width, node // width
            for nx, ny in (((x + 1) % width, y), ((x - 1) % width, y),
                           (x, (y + 1) % height), (x, (y - 1) % height)):
                neighbour = ny * width + nx
                if neighbour not in distance:
                    distance[neighbour] = distance[node] + 1
                    reached.append(neighbour)
        frontier = reached
    return distance


@pytest.mark.parametrize("width,height", [
    (1, 1), (1, 2), (1, 7), (2, 2), (2, 3), (2, 4), (3, 5), (4, 4), (4, 8),
    (8, 8),
])
def test_hops_are_shortest_paths_over_the_links(width, height):
    """``hops`` and the latency matrix agree with a search of the links."""
    topo = torus(width=width, height=height, hop=7)
    for src in range(topo.num_nodes):
        distance = torus_distances(width, height, src)
        assert len(distance) == topo.num_nodes
        for dst in range(topo.num_nodes):
            assert topo.hops(src, dst) == distance[dst]
            assert topo.latency[src][dst] == 7 * distance[dst]


class TestLatencyMatrix:
    """The one-way latency matrix the transaction engine reads."""

    @pytest.mark.parametrize("width,height,hop", [
        (1, 1, 100), (1, 7, 20), (2, 4, 20), (4, 4, 100), (4, 8, 100),
        (8, 8, 100), (4, 4, 0),
    ])
    def test_matrix_is_hops_times_hop_latency(self, width, height, hop):
        topo = torus(width=width, height=height, hop=hop)
        matrix = topo.latency
        assert len(matrix) == topo.num_nodes
        for src in range(topo.num_nodes):
            assert len(matrix[src]) == topo.num_nodes
            assert matrix[src][src] == 0
            for dst in range(topo.num_nodes):
                assert matrix[src][dst] == topo.hops(src, dst) * hop
                assert matrix[src][dst] == matrix[dst][src]

    def test_paper_torus_latencies(self):
        config = paper_config()
        hop = config.interconnect.hop_latency
        matrix = TorusTopology(config.interconnect).latency
        assert matrix[0][0] == 0
        assert matrix[0][1] == hop
        assert matrix[0][2] == 2 * hop
        assert matrix[0][3] == hop  # through the wrap-around link
        assert max(matrix[0]) == 4 * hop
