"""Tests for repro.config."""

import dataclasses
import json

import pytest

from repro.config import (
    CacheConfig,
    ConsistencyModel,
    InterconnectConfig,
    SpeculationConfig,
    SpeculationMode,
    StoreBufferConfig,
    StoreBufferKind,
    SystemConfig,
    ViolationPolicy,
    default_store_buffer,
    paper_config,
    resolved_interconnect,
    small_config,
    torus_geometry,
)
from repro.errors import ConfigurationError


class TestCacheConfig:
    def test_basic_geometry(self):
        cache = CacheConfig(size_bytes=64 * 1024, associativity=2, block_bytes=64,
                            hit_latency=2)
        assert cache.num_blocks == 1024
        assert cache.num_sets == 512

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1024, associativity=2, block_bytes=48, hit_latency=1)

    def test_rejects_size_not_multiple_of_way_size(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1000, associativity=2, block_bytes=64, hit_latency=1)

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1024, associativity=2, block_bytes=64, hit_latency=-1)

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=0, associativity=2, block_bytes=64, hit_latency=1)


class TestStoreBufferConfig:
    def test_valid(self):
        sb = StoreBufferConfig(StoreBufferKind.FIFO_WORD, 64, 8)
        assert sb.entries == 64

    def test_rejects_zero_entries(self):
        with pytest.raises(ConfigurationError):
            StoreBufferConfig(StoreBufferKind.FIFO_WORD, 0, 8)

    def test_rejects_zero_entry_bytes(self):
        with pytest.raises(ConfigurationError):
            StoreBufferConfig(StoreBufferKind.COALESCING_BLOCK, 8, 0)


class TestInterconnectConfig:
    def test_num_nodes(self):
        net = InterconnectConfig(mesh_width=4, mesh_height=4, hop_latency=100)
        assert net.num_nodes == 16

    def test_rejects_zero_dimension(self):
        with pytest.raises(ConfigurationError):
            InterconnectConfig(mesh_width=0, mesh_height=4, hop_latency=1)

    def test_rejects_zero_height(self):
        with pytest.raises(ConfigurationError):
            InterconnectConfig(mesh_width=4, mesh_height=0, hop_latency=1)

    def test_rejects_negative_hop_latency(self):
        with pytest.raises(ConfigurationError):
            InterconnectConfig(mesh_width=4, mesh_height=4, hop_latency=-1)

    def test_zero_hop_latency_is_a_free_network(self):
        net = InterconnectConfig(mesh_width=2, mesh_height=2, hop_latency=0)
        assert net.num_nodes == 4


class TestTorusGeometryResolver:
    @pytest.mark.parametrize("cores,expected", [
        (1, (1, 1)), (2, (1, 2)), (4, (2, 2)), (6, (2, 3)), (8, (2, 4)),
        (12, (3, 4)), (16, (4, 4)), (32, (4, 8)), (48, (6, 8)), (64, (8, 8)),
    ])
    def test_most_square_factorisation(self, cores, expected):
        assert torus_geometry(cores) == expected

    def test_prime_counts_resolve_to_rings(self):
        assert torus_geometry(7) == (1, 7)
        assert torus_geometry(17) == (1, 17)

    def test_every_count_covers_exactly_its_cores(self):
        for cores in range(1, 65):
            width, height = torus_geometry(cores)
            assert width * height == cores
            assert width <= height

    def test_rejects_non_positive_and_oversized(self):
        with pytest.raises(ConfigurationError):
            torus_geometry(0)
        with pytest.raises(ConfigurationError):
            torus_geometry(65)

    def test_resolved_interconnect_carries_knobs(self):
        net = resolved_interconnect(8, hop_latency=40)
        assert (net.mesh_width, net.mesh_height) == (2, 4)
        assert net.hop_latency == 40

    def test_every_resolvable_core_count_builds_a_config(self):
        for cores in range(1, 65):
            config = paper_config(num_cores=cores)
            assert config.interconnect.num_nodes == cores
            small = small_config(num_cores=cores)
            assert small.interconnect.num_nodes == cores


class TestSpeculationConfig:
    def test_defaults_are_non_speculative(self):
        spec = SpeculationConfig()
        assert spec.mode is SpeculationMode.NONE
        assert spec.num_checkpoints == 1

    def test_rejects_zero_checkpoints(self):
        with pytest.raises(ConfigurationError):
            SpeculationConfig(num_checkpoints=0)

    def test_rejects_three_checkpoints_for_invisifence(self):
        with pytest.raises(ConfigurationError):
            SpeculationConfig(mode=SpeculationMode.SELECTIVE, num_checkpoints=3)

    def test_aso_may_use_many_checkpoints(self):
        spec = SpeculationConfig(mode=SpeculationMode.ASO, num_checkpoints=8)
        assert spec.num_checkpoints == 8

    def test_rejects_non_positive_cov_timeout(self):
        with pytest.raises(ConfigurationError):
            SpeculationConfig(cov_timeout=0)

    def test_rejects_non_positive_chunk(self):
        with pytest.raises(ConfigurationError):
            SpeculationConfig(min_chunk_size=0)


class TestDefaultStoreBuffer:
    def test_sc_and_tso_get_fifo(self):
        for model in (ConsistencyModel.SC, ConsistencyModel.TSO):
            sb = default_store_buffer(model, SpeculationConfig())
            assert sb.kind is StoreBufferKind.FIFO_WORD
            assert sb.entries == 64

    def test_rmo_gets_coalescing(self):
        sb = default_store_buffer(ConsistencyModel.RMO, SpeculationConfig())
        assert sb.kind is StoreBufferKind.COALESCING_BLOCK
        assert sb.entries == 8

    def test_selective_single_checkpoint_gets_eight_entries(self):
        sb = default_store_buffer(ConsistencyModel.SC,
                                  SpeculationConfig(mode=SpeculationMode.SELECTIVE))
        assert sb.kind is StoreBufferKind.COALESCING_BLOCK
        assert sb.entries == 8

    def test_two_checkpoints_get_32_entries(self):
        sb = default_store_buffer(
            ConsistencyModel.SC,
            SpeculationConfig(mode=SpeculationMode.SELECTIVE, num_checkpoints=2))
        assert sb.entries == 32

    def test_continuous_gets_32_entries(self):
        sb = default_store_buffer(
            ConsistencyModel.SC,
            SpeculationConfig(mode=SpeculationMode.CONTINUOUS, num_checkpoints=2))
        assert sb.entries == 32

    def test_aso_gets_large_fifo(self):
        sb = default_store_buffer(ConsistencyModel.SC,
                                  SpeculationConfig(mode=SpeculationMode.ASO))
        assert sb.kind is StoreBufferKind.FIFO_WORD
        assert sb.entries >= 128


class TestSystemConfig:
    def test_paper_defaults_match_figure6(self):
        config = paper_config()
        assert config.num_cores == 16
        assert config.l1.size_bytes == 64 * 1024
        assert config.l1.hit_latency == 2
        assert config.l2.size_bytes == 8 * 1024 * 1024
        assert config.l2.hit_latency == 25
        assert config.memory_latency == 160
        assert config.interconnect.mesh_width == 4
        assert config.interconnect.hop_latency == 100

    def test_store_buffer_auto_selected(self):
        config = paper_config(ConsistencyModel.RMO)
        assert config.store_buffer is not None
        assert config.store_buffer.kind is StoreBufferKind.COALESCING_BLOCK

    def test_geometry_resolves_from_core_count(self):
        # 17 cores used to be rejected against the fixed 4x4 torus; the
        # resolver now lays out a 1x17 ring for it and an 8x8 at 64 cores.
        assert paper_config(num_cores=17).interconnect.num_nodes == 17
        big = paper_config(num_cores=64)
        assert (big.interconnect.mesh_width, big.interconnect.mesh_height) == (8, 8)
        with pytest.raises(ConfigurationError):
            paper_config(num_cores=65)

    def test_rejects_more_cores_than_nodes(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_cores=17)  # default interconnect is the 4x4 torus

    def test_rejects_mismatched_block_sizes(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(
                num_cores=2,
                l1=CacheConfig(size_bytes=8 * 1024, associativity=2, block_bytes=64,
                               hit_latency=2),
                l2=CacheConfig(size_bytes=64 * 1024, associativity=8, block_bytes=128,
                               hit_latency=10),
            )

    def test_describe_mentions_key_parameters(self):
        info = paper_config().describe()
        assert info["cores"] == "16"
        assert "64KB" in info["L1"]
        assert "torus" in info["interconnect"]

    def test_replace_creates_modified_copy(self):
        config = paper_config()
        other = config.replace(num_cores=8)
        assert other.num_cores == 8
        assert config.num_cores == 16

    def test_uses_speculation_flag(self):
        assert not paper_config().uses_speculation
        spec = SpeculationConfig(mode=SpeculationMode.SELECTIVE)
        assert paper_config(speculation=spec).uses_speculation

    def test_small_config_scales_down(self):
        config = small_config(num_cores=4)
        assert config.num_cores == 4
        assert config.l1.size_bytes < paper_config().l1.size_bytes
        assert config.memory_latency < paper_config().memory_latency

    def test_small_config_grows_mesh_for_more_cores(self):
        config = small_config(num_cores=9)
        assert config.interconnect.num_nodes >= 9

    def test_enums_render_as_strings(self):
        assert str(ConsistencyModel.SC) == "sc"
        assert str(SpeculationMode.SELECTIVE) == "selective"
        assert str(ViolationPolicy.COMMIT_ON_VIOLATE) == "commit_on_violate"
        assert str(StoreBufferKind.FIFO_WORD) == "fifo_word"

    def test_wire_format_fields(self):
        """The fields every cache key hashes.  Changing them changes every
        key, so it goes with a ``RESULT_SCHEMA_VERSION`` bump."""
        data = paper_config().to_dict()
        assert set(data) == {
            "num_cores", "consistency", "speculation", "l1", "l2",
            "store_buffer", "interconnect", "memory_latency",
            "directory_latency", "clean_writeback_latency",
            "store_prefetch_lead"}
        assert data["interconnect"] == {"mesh_width": 4, "mesh_height": 4,
                                        "hop_latency": 100}
        assert set(data["speculation"]) == {
            "mode", "violation_policy", "num_checkpoints", "cov_timeout",
            "min_chunk_size", "aso_checkpoint_interval",
            "second_checkpoint_threshold"}

    @pytest.mark.parametrize("cores", (1, 7, 64))
    def test_resolved_machines_round_trip_through_json(self, cores):
        for config in (paper_config(num_cores=cores),
                       small_config(num_cores=cores)):
            data = json.loads(json.dumps(config.to_dict()))
            assert SystemConfig.from_dict(data) == config

    def test_replace_interconnect_overrides_the_torus(self):
        config = small_config(num_cores=4)
        wide = config.replace(interconnect=InterconnectConfig(
            mesh_width=2, mesh_height=4, hop_latency=40))
        assert wide.interconnect.num_nodes == 8  # four idle nodes
        assert wide.interconnect.hop_latency == 40
        assert wide.l2 == config.l2 and wide.num_cores == 4
        assert wide.replace(interconnect=config.interconnect) == config
        with pytest.raises(ConfigurationError):
            config.replace(interconnect=resolved_interconnect(2))

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            paper_config().num_cores = 4
