"""System configuration for the InvisiFence reproduction.

The defaults follow Figure 6 of the paper (the Flexus baseline system):
16 cores at 4 GHz, 64 KB 2-way L1 data caches with 64-byte blocks and a
2-cycle load-to-use latency, an 8 MB 8-way shared L2 with a 25-cycle hit
latency, 40 ns main memory, and a 4x4 2-D torus interconnect with 25 ns
per-hop latency.  Store buffers are a 64-entry word-granularity FIFO for SC
and TSO, an 8-entry block-granularity coalescing buffer for RMO and
single-checkpoint InvisiFence, and a 32-entry coalescing buffer for
configurations with two in-flight checkpoints (including
InvisiFence-Continuous).

All latencies are expressed in core clock cycles.  The paper's nanosecond
figures are converted at 4 GHz (1 ns = 4 cycles).

Two factory helpers are provided:

* :func:`paper_config` -- the full Figure 6 system.
* :func:`small_config` -- a scaled-down system (fewer cores, smaller caches,
  shorter latencies) used by the test suite and the quick benchmark presets
  so that runs finish in seconds while preserving the latency *ratios* that
  drive the paper's effects.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple

from .errors import ConfigurationError


class ConsistencyModel(str, Enum):
    """Memory consistency models studied by the paper (Section 2)."""

    SC = "sc"
    TSO = "tso"
    RMO = "rmo"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SpeculationMode(str, Enum):
    """How (and whether) post-retirement speculation is employed."""

    NONE = "none"
    SELECTIVE = "selective"
    CONTINUOUS = "continuous"
    ASO = "aso"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ViolationPolicy(str, Enum):
    """What to do when an external request conflicts with speculation."""

    ABORT = "abort"
    COMMIT_ON_VIOLATE = "commit_on_violate"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class StoreBufferKind(str, Enum):
    """Store buffer organisations from Figure 2 / Figure 6."""

    FIFO_WORD = "fifo_word"
    COALESCING_BLOCK = "coalescing_block"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of a single cache level."""

    size_bytes: int
    associativity: int
    block_bytes: int
    hit_latency: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.block_bytes <= 0:
            raise ConfigurationError("cache geometry values must be positive")
        if self.hit_latency < 0:
            raise ConfigurationError("hit latency must be non-negative")
        if self.size_bytes % (self.associativity * self.block_bytes) != 0:
            raise ConfigurationError(
                "cache size must be a multiple of associativity * block size"
            )
        if self.block_bytes & (self.block_bytes - 1):
            raise ConfigurationError("block size must be a power of two")

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.associativity


@dataclass(frozen=True)
class StoreBufferConfig:
    """Capacity and granularity of a store buffer."""

    kind: StoreBufferKind
    entries: int
    entry_bytes: int

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ConfigurationError("store buffer must have at least one entry")
        if self.entry_bytes <= 0:
            raise ConfigurationError("store buffer entry size must be positive")


#: Largest machine the geometry resolver will lay out (an 8x8 torus).
MAX_RESOLVED_CORES = 64


@dataclass(frozen=True)
class InterconnectConfig:
    """2-D torus parameters (Figure 6).

    The network is the paper's contention-free one: a message between
    two nodes costs ``hops * hop_latency`` cycles (DESIGN.md section 4).
    """

    mesh_width: int
    mesh_height: int
    hop_latency: int

    def __post_init__(self) -> None:
        if self.mesh_width <= 0 or self.mesh_height <= 0:
            raise ConfigurationError("torus dimensions must be positive")
        if self.hop_latency < 0:
            raise ConfigurationError("hop latency must be non-negative")

    @property
    def num_nodes(self) -> int:
        return self.mesh_width * self.mesh_height


def torus_geometry(num_cores: int) -> Tuple[int, int]:
    """Resolve a core count to the most-square (width, height) torus.

    Every core gets exactly one node (no idle directory slices): the
    resolver picks the factor pair of ``num_cores`` with the smallest
    aspect ratio, preferring ``width <= height``.  Powers of two therefore
    map 4 -> 2x2, 8 -> 2x4, 16 -> 4x4, 32 -> 4x8, 64 -> 8x8, and prime
    counts degenerate to a 1xN ring.
    """
    if num_cores <= 0:
        raise ConfigurationError("need at least one core to lay out a torus")
    if num_cores > MAX_RESOLVED_CORES:
        raise ConfigurationError(
            f"geometry resolver supports up to {MAX_RESOLVED_CORES} cores "
            f"(8x8 torus), got {num_cores}"
        )
    width = 1
    for candidate in range(1, int(num_cores ** 0.5) + 1):
        if num_cores % candidate == 0:
            width = candidate
    return width, num_cores // width


def resolved_interconnect(num_cores: int,
                          hop_latency: int = 25 * 4) -> InterconnectConfig:
    """An :class:`InterconnectConfig` sized for ``num_cores`` by the resolver."""
    width, height = torus_geometry(num_cores)
    return InterconnectConfig(mesh_width=width, mesh_height=height,
                              hop_latency=hop_latency)


@dataclass(frozen=True)
class SpeculationConfig:
    """Policy knobs for post-retirement speculation (Sections 3 and 4)."""

    mode: SpeculationMode = SpeculationMode.NONE
    violation_policy: ViolationPolicy = ViolationPolicy.ABORT
    num_checkpoints: int = 1
    #: commit-on-violate deferral window, in cycles (paper: 4000).
    cov_timeout: int = 4000
    #: minimum chunk size for continuous speculation (paper: ~100 insns).
    min_chunk_size: int = 100
    #: ASO takes an additional checkpoint every this many retired ops.
    aso_checkpoint_interval: int = 64
    #: instructions into a speculation after which a 2-checkpoint selective
    #: configuration takes its second checkpoint.
    second_checkpoint_threshold: int = 64

    def __post_init__(self) -> None:
        if self.num_checkpoints < 1:
            raise ConfigurationError("at least one checkpoint is required")
        if self.num_checkpoints > 2 and self.mode != SpeculationMode.ASO:
            raise ConfigurationError(
                "InvisiFence supports at most two in-flight checkpoints"
            )
        if self.cov_timeout <= 0:
            raise ConfigurationError("CoV timeout must be positive")
        if self.min_chunk_size <= 0:
            raise ConfigurationError("minimum chunk size must be positive")
        if self.aso_checkpoint_interval <= 0:
            raise ConfigurationError("ASO checkpoint interval must be positive")


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated machine configuration."""

    num_cores: int = 16
    consistency: ConsistencyModel = ConsistencyModel.SC
    speculation: SpeculationConfig = field(default_factory=SpeculationConfig)

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=64 * 1024, associativity=2, block_bytes=64, hit_latency=2
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=8 * 1024 * 1024, associativity=8, block_bytes=64, hit_latency=25
        )
    )
    store_buffer: Optional[StoreBufferConfig] = None
    interconnect: InterconnectConfig = field(
        default_factory=lambda: InterconnectConfig(
            mesh_width=4, mesh_height=4, hop_latency=25 * 4
        )
    )
    #: main memory access latency (paper: 40 ns at 4 GHz).
    memory_latency: int = 160
    #: fixed directory/protocol-controller occupancy per transaction.
    directory_latency: int = 8
    #: latency of a clean-writeback used to preserve pre-speculative data.
    clean_writeback_latency: int = 30
    #: store-prefetch lead: the baseline processors issue store prefetches at
    #: execute time (Section 6.1), so by the time a store retires its miss
    #: has typically been outstanding for a while.  The retirement-level core
    #: model approximates this by shortening the visible latency of write
    #: misses by this many cycles (never below the L1 hit latency).
    store_prefetch_lead: int = 150

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigurationError("need at least one core")
        if self.num_cores > self.interconnect.num_nodes:
            raise ConfigurationError(
                "interconnect has fewer nodes than there are cores"
            )
        if self.l1.block_bytes != self.l2.block_bytes:
            raise ConfigurationError("L1 and L2 must use the same block size")
        if self.memory_latency < 0 or self.directory_latency < 0:
            raise ConfigurationError("latencies must be non-negative")
        if self.store_buffer is None:
            object.__setattr__(
                self, "store_buffer", default_store_buffer(self.consistency, self.speculation)
            )

    # -- convenience -----------------------------------------------------

    @property
    def block_bytes(self) -> int:
        return self.l1.block_bytes

    @property
    def uses_speculation(self) -> bool:
        return self.speculation.mode != SpeculationMode.NONE

    def describe(self) -> Dict[str, str]:
        """Return a flat, printable description of this configuration."""
        sb = self.store_buffer
        assert sb is not None
        return {
            "cores": str(self.num_cores),
            "consistency": self.consistency.value,
            "speculation": self.speculation.mode.value,
            "violation policy": self.speculation.violation_policy.value,
            "checkpoints": str(self.speculation.num_checkpoints),
            "L1": f"{self.l1.size_bytes // 1024}KB {self.l1.associativity}-way, "
                  f"{self.l1.hit_latency}-cycle",
            "L2": f"{self.l2.size_bytes // (1024 * 1024)}MB {self.l2.associativity}-way, "
                  f"{self.l2.hit_latency}-cycle",
            "store buffer": f"{sb.kind.value} x{sb.entries} ({sb.entry_bytes}B)",
            "memory latency": f"{self.memory_latency} cycles",
            "interconnect": f"{self.interconnect.mesh_width}x"
                            f"{self.interconnect.mesh_height} torus, "
                            f"{self.interconnect.hop_latency} cycles/hop",
        }

    def replace(self, **changes: object) -> "SystemConfig":
        """Return a copy of this configuration with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    # -- (de)serialization -----------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form suitable for ``json.dumps``.

        The enum fields are ``str`` subclasses, so the output serializes
        to JSON directly; :meth:`from_dict` restores the enum types.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SystemConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        spec = dict(data["speculation"])
        spec["mode"] = SpeculationMode(spec["mode"])
        spec["violation_policy"] = ViolationPolicy(spec["violation_policy"])
        store_buffer = None
        if data.get("store_buffer") is not None:
            sb = dict(data["store_buffer"])
            sb["kind"] = StoreBufferKind(sb["kind"])
            store_buffer = StoreBufferConfig(**sb)
        return cls(
            num_cores=data["num_cores"],
            consistency=ConsistencyModel(data["consistency"]),
            speculation=SpeculationConfig(**spec),
            l1=CacheConfig(**data["l1"]),
            l2=CacheConfig(**data["l2"]),
            store_buffer=store_buffer,
            interconnect=InterconnectConfig(**data["interconnect"]),
            memory_latency=data["memory_latency"],
            directory_latency=data["directory_latency"],
            clean_writeback_latency=data["clean_writeback_latency"],
            store_prefetch_lead=data["store_prefetch_lead"],
        )


def default_store_buffer(
    consistency: ConsistencyModel, speculation: SpeculationConfig
) -> StoreBufferConfig:
    """Pick the Figure 6 store buffer for a consistency/speculation pair.

    SC and TSO conventionally use an 8-byte, 64-entry FIFO.  RMO and
    InvisiFence use a 64-byte coalescing buffer with 8 entries, enlarged to
    32 entries when two checkpoints may be in flight (which includes
    InvisiFence-Continuous).  ASO's Scalable Store Buffer is a 256-entry
    word FIFO.
    """
    if speculation.mode == SpeculationMode.NONE:
        if consistency in (ConsistencyModel.SC, ConsistencyModel.TSO):
            return StoreBufferConfig(StoreBufferKind.FIFO_WORD, 64, 8)
        return StoreBufferConfig(StoreBufferKind.COALESCING_BLOCK, 8, 64)
    if speculation.mode == SpeculationMode.ASO:
        return StoreBufferConfig(StoreBufferKind.FIFO_WORD, 256, 8)
    if speculation.mode == SpeculationMode.CONTINUOUS:
        return StoreBufferConfig(StoreBufferKind.COALESCING_BLOCK, 32, 64)
    if speculation.num_checkpoints >= 2:
        return StoreBufferConfig(StoreBufferKind.COALESCING_BLOCK, 32, 64)
    return StoreBufferConfig(StoreBufferKind.COALESCING_BLOCK, 8, 64)


def paper_config(
    consistency: ConsistencyModel = ConsistencyModel.SC,
    speculation: Optional[SpeculationConfig] = None,
    num_cores: int = 16,
) -> SystemConfig:
    """Build the Figure 6 baseline system for a given configuration.

    The torus is sized for ``num_cores`` by :func:`torus_geometry` (the
    paper's 16 cores resolve to its 4x4 torus).
    """
    spec = speculation if speculation is not None else SpeculationConfig()
    return SystemConfig(num_cores=num_cores, consistency=consistency,
                        speculation=spec,
                        interconnect=resolved_interconnect(num_cores))


def small_config(
    consistency: ConsistencyModel = ConsistencyModel.SC,
    speculation: Optional[SpeculationConfig] = None,
    num_cores: int = 4,
) -> SystemConfig:
    """A scaled-down system for tests and quick benchmark runs.

    Latency ratios (L1 : L2 : memory : hop) follow the paper; absolute
    values and cache sizes are reduced so that small synthetic traces
    exercise capacity effects and runs complete quickly.
    """
    spec = speculation if speculation is not None else SpeculationConfig()
    return SystemConfig(
        num_cores=num_cores,
        consistency=consistency,
        speculation=spec,
        l1=CacheConfig(size_bytes=8 * 1024, associativity=2, block_bytes=64,
                       hit_latency=2),
        l2=CacheConfig(size_bytes=256 * 1024, associativity=8, block_bytes=64,
                       hit_latency=12),
        interconnect=resolved_interconnect(num_cores, hop_latency=20),
        memory_latency=80,
        directory_latency=4,
        clean_writeback_latency=10,
        store_prefetch_lead=30,
    )
