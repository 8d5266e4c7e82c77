"""Tests for repro.interconnect (torus topology and latency model)."""

import pytest

from repro.config import InterconnectConfig, paper_config, resolved_interconnect
from repro.errors import ConfigurationError
from repro.interconnect.latency import LatencyModel
from repro.interconnect.topology import TorusTopology


def torus(width: int = 4, height: int = 4, hop: int = 100) -> TorusTopology:
    return TorusTopology(InterconnectConfig(mesh_width=width, mesh_height=height,
                                            hop_latency=hop))


class TestTopology:
    def test_coordinates_roundtrip(self):
        topo = torus()
        for node in range(topo.num_nodes):
            x, y = topo.coordinates(node)
            assert topo.node_at(x, y) == node

    def test_rejects_invalid_node(self):
        topo = torus()
        with pytest.raises(ConfigurationError):
            topo.coordinates(16)
        with pytest.raises(ConfigurationError):
            topo.node_at(4, 0)

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

    def test_home_node_distribution(self):
        topo = torus()
        homes = {topo.home_node(i * 64, 64) for i in range(64)}
        assert homes == set(range(16))

    def test_home_node_stable_within_block(self):
        topo = torus()
        assert topo.home_node(0, 64) == topo.home_node(0, 64)


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
        assert topo.hops(0, topo.node_at(4, 4)) == 8
        assert max(topo.hops(0, n) for n in range(64)) == 8

    def test_8x8_symmetry_and_triangle(self):
        topo = torus(width=8, height=8)
        probes = (0, 7, 28, 36, 63)
        for a in probes:
            for b in probes:
                assert topo.hops(a, b) == topo.hops(b, a)
                for c in (0, 27, 63):
                    assert topo.hops(a, b) <= topo.hops(a, c) + topo.hops(c, b)

    def test_home_distribution_covers_all_64_nodes(self):
        topo = torus(width=8, height=8)
        homes = {topo.home_node(i * 64, 64) for i in range(256)}
        assert homes == set(range(64))


class TestRoutes:
    def test_route_length_matches_hops(self):
        for width, height in ((1, 7), (2, 4), (4, 4), (8, 8)):
            topo = torus(width=width, height=height)
            for src in range(topo.num_nodes):
                for dst in range(topo.num_nodes):
                    assert len(topo.route(src, dst)) == topo.hops(src, dst)

    def test_route_to_self_is_empty(self):
        assert torus().route(5, 5) == ()

    def test_route_links_are_distinct_per_message(self):
        topo = torus(width=4, height=4)
        for src in range(16):
            for dst in range(16):
                links = topo.route(src, dst)
                assert len(set(links)) == len(links)

    def test_route_is_deterministic(self):
        topo = torus(width=4, height=4)
        assert topo.route(0, 10) == topo.route(0, 10)


class TestLatencyModel:
    def test_network_latency_scales_with_hops(self):
        config = paper_config()
        model = LatencyModel(config)
        assert model.network(0, 0) == 0
        assert model.network(0, 1) == config.interconnect.hop_latency
        assert model.network(0, 2) == 2 * config.interconnect.hop_latency


class TestQueuedContention:
    """The opt-in per-link/per-ejection-port queued contention model."""

    def contended_model(self, num_cores=16, hop=100, bandwidth=1):
        config = paper_config(
            num_cores=num_cores,
            interconnect=resolved_interconnect(num_cores, hop_latency=hop,
                                               contention="queued",
                                               link_bandwidth=bandwidth))
        return LatencyModel(config)

    def test_none_mode_traverse_is_pure_arithmetic(self):
        model = LatencyModel(paper_config())
        assert not model.contended
        for _ in range(3):  # repeat traversals must not accumulate state
            assert model.traverse(0, 5, 1000) == 1000 + model.network(0, 5)
        assert model.contention_cycles == 0

    def test_single_message_pays_uncontended_latency(self):
        model = self.contended_model()
        assert model.traverse(0, 1, 0) == model.network(0, 1)
        assert model.contention_cycles == 0

    def test_traverse_to_self_is_free(self):
        model = self.contended_model()
        assert model.traverse(3, 3, 42) == 42

    def test_second_message_queues_behind_first(self):
        model = self.contended_model(hop=100, bandwidth=1)
        first = model.traverse(0, 1, 0)
        second = model.traverse(0, 1, 0)
        # Same single-link route: the second waits one full occupancy.
        assert first == 100
        assert second == 200
        assert model.contention_cycles == 100

    def test_wider_links_shrink_the_queue_penalty(self):
        model = self.contended_model(hop=100, bandwidth=4)
        first = model.traverse(0, 1, 0)
        second = model.traverse(0, 1, 0)
        assert first == 100
        assert second == 125  # occupancy 100 // 4 = 25

    def test_disjoint_routes_do_not_interfere(self):
        model = self.contended_model()
        a = model.traverse(0, 1, 0)
        b = model.traverse(10, 9, 0)
        assert a == model.network(0, 1)
        assert b == model.network(10, 9)
        assert model.contention_cycles == 0

    def test_ejection_port_is_shared(self):
        model = self.contended_model(hop=100, bandwidth=1)
        # 1 -> 0 and 4 -> 0 use disjoint links but the same ejection port.
        first = model.traverse(1, 0, 0)
        second = model.traverse(4, 0, 0)
        assert first == 100
        assert second == 200
        assert model.contention_cycles == 100

    def test_later_departure_clears_the_queue(self):
        model = self.contended_model(hop=100, bandwidth=1)
        model.traverse(0, 1, 0)
        # Departing after the first message's occupancy window: no wait.
        assert model.traverse(0, 1, 500) == 600
        assert model.contention_cycles == 0

    def test_contention_on_a_ring(self):
        model = self.contended_model(num_cores=8, hop=50)
        topo = model.topology
        assert (topo.config.mesh_width, topo.config.mesh_height) == (2, 4)
        first = model.traverse(0, 5, 0)
        second = model.traverse(0, 5, 0)
        assert second > first
