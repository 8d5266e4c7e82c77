"""Shared fixtures and helpers for the test suite.

Most controller-level tests build a tiny system by hand: a list of
operations per core, a small machine configuration, and the
``build_system`` wiring.  The helpers here keep those tests short and
deterministic.
"""

from __future__ import annotations

import dataclasses
import sqlite3
from typing import Any, Dict, List, Optional, Sequence, Tuple

import pytest

from repro.config import (
    CacheConfig,
    ConsistencyModel,
    InterconnectConfig,
    SpeculationConfig,
    SpeculationMode,
    SystemConfig,
    ViolationPolicy,
)
from repro.engine.simulator import Simulator
from repro.engine.system import System, build_system
from repro.obs import COHERENCE_TID_BASE, TraceRecorder
from repro.trace.ops import MemOp
from repro.trace.trace import MultiThreadedTrace, Trace


# ---------------------------------------------------------------------------
# Tiny machine configurations
# ---------------------------------------------------------------------------

def tiny_config(consistency: ConsistencyModel = ConsistencyModel.SC,
                speculation: Optional[SpeculationConfig] = None,
                num_cores: int = 2,
                l1_blocks: int = 64,
                l1_assoc: int = 2,
                hop_latency: int = 10,
                memory_latency: int = 40,
                store_prefetch_lead: int = 0) -> SystemConfig:
    """A small, fast machine with simple round-number latencies."""
    spec = speculation if speculation is not None else SpeculationConfig()
    mesh = 2
    while mesh * mesh < num_cores:
        mesh += 1
    return SystemConfig(
        num_cores=num_cores,
        consistency=consistency,
        speculation=spec,
        l1=CacheConfig(size_bytes=l1_blocks * 64, associativity=l1_assoc,
                       block_bytes=64, hit_latency=2),
        l2=CacheConfig(size_bytes=64 * 1024, associativity=8, block_bytes=64,
                       hit_latency=10),
        interconnect=InterconnectConfig(mesh_width=mesh, mesh_height=mesh,
                                        hop_latency=hop_latency),
        memory_latency=memory_latency,
        directory_latency=4,
        clean_writeback_latency=8,
        store_prefetch_lead=store_prefetch_lead,
    )


def selective_config(model: ConsistencyModel = ConsistencyModel.SC,
                     num_checkpoints: int = 1,
                     violation_policy: ViolationPolicy = ViolationPolicy.ABORT,
                     cov_timeout: int = 4000,
                     **kwargs) -> SystemConfig:
    """Tiny config running InvisiFence-Selective."""
    spec = SpeculationConfig(mode=SpeculationMode.SELECTIVE,
                             num_checkpoints=num_checkpoints,
                             violation_policy=violation_policy,
                             cov_timeout=cov_timeout)
    return tiny_config(model, spec, **kwargs)


def continuous_config(violation_policy: ViolationPolicy = ViolationPolicy.ABORT,
                      min_chunk_size: int = 20,
                      cov_timeout: int = 4000,
                      **kwargs) -> SystemConfig:
    """Tiny config running InvisiFence-Continuous."""
    spec = SpeculationConfig(mode=SpeculationMode.CONTINUOUS,
                             num_checkpoints=2,
                             min_chunk_size=min_chunk_size,
                             violation_policy=violation_policy,
                             cov_timeout=cov_timeout)
    return tiny_config(ConsistencyModel.SC, spec, **kwargs)


def aso_config(**kwargs) -> SystemConfig:
    """Tiny config running the ASO baseline."""
    spec = SpeculationConfig(mode=SpeculationMode.ASO, num_checkpoints=2,
                             aso_checkpoint_interval=16)
    return tiny_config(ConsistencyModel.SC, spec, **kwargs)


# ---------------------------------------------------------------------------
# Trace and system construction helpers
# ---------------------------------------------------------------------------

def make_trace(ops_by_core: Sequence[Sequence[MemOp]],
               name: str = "test") -> MultiThreadedTrace:
    """Build a multi-threaded trace from per-core op lists."""
    traces = [Trace(list(ops), thread_id=i) for i, ops in enumerate(ops_by_core)]
    return MultiThreadedTrace(traces, name=name)


def make_system(ops_by_core: Sequence[Sequence[MemOp]],
                config: SystemConfig) -> System:
    """Wire a system for hand-written per-core op lists."""
    return build_system(config, make_trace(ops_by_core))


def run_system(system: System):
    """Run a hand-built system to completion and return the result."""
    return Simulator(system).run()


def run_ops(ops_by_core: Sequence[Sequence[MemOp]], config: SystemConfig):
    """Convenience: build and run in one step."""
    return run_system(make_system(ops_by_core, config))


# Block-aligned addresses used throughout the directed tests.
def block_addr(index: int) -> int:
    """The byte address of test block ``index`` (64-byte blocks)."""
    return index * 64


def dir_transactions(recorder: TraceRecorder) -> List[Dict[str, Any]]:
    """The coherence transactions ``recorder`` saw, in the order they ran.

    One dict per ``dir.*`` instant: the instant's args (``block``,
    ``home``, ``issue``, ``done``, ``l2_hit``, ``owner``, ``invalidated``)
    plus its ``name`` (``dir.gets``, ``dir.getm`` or ``dir.upgrade``),
    the requesting ``core`` and ``start``, the instant's timestamp.
    """
    return [dict(inst.args, name=inst.name, start=inst.ts,
                 core=inst.tid - COHERENCE_TID_BASE)
            for inst in recorder.instants if inst.name.startswith("dir.")]


# ---------------------------------------------------------------------------
# The engine grid: every registered config on three workloads
# ---------------------------------------------------------------------------

#: workloads of the engine grid: a rollback-heavy storm, a lock-based
#: task pool and a server preset.
GRID_WORKLOADS = ("false-sharing-storm", "task-pool", "apache")
GRID_CORES = 4
GRID_OPS = 300
GRID_SEED = 3


def grid_configs() -> Dict[str, SystemConfig]:
    """Every registered config, plus 1-entry store-buffer ``sc``/``invisi_sc``.

    The 1-entry variants put the store buffer's capacity stall (``SB
    full``) on almost every store, FIFO and coalescing alike.
    """
    from repro.campaign import DEFAULT_REGISTRY
    from repro.experiments.common import ExperimentSettings

    settings = ExperimentSettings(num_cores=GRID_CORES,
                                  ops_per_thread=GRID_OPS, seeds=(GRID_SEED,),
                                  warmup_fraction=0.0)
    configs = {name: DEFAULT_REGISTRY.make(name, settings)
               for name in DEFAULT_REGISTRY.names()}
    for name in ("sc", "invisi_sc"):
        base = configs[name]
        configs[f"{name}_sb1"] = base.replace(
            store_buffer=dataclasses.replace(base.store_buffer, entries=1))
    return configs


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

@pytest.fixture
def sc_config() -> SystemConfig:
    return tiny_config(ConsistencyModel.SC)


@pytest.fixture
def tso_config() -> SystemConfig:
    return tiny_config(ConsistencyModel.TSO)


@pytest.fixture
def rmo_config() -> SystemConfig:
    return tiny_config(ConsistencyModel.RMO)


@pytest.fixture
def invisi_sc_config() -> SystemConfig:
    return selective_config(ConsistencyModel.SC)


@pytest.fixture
def invisi_rmo_config() -> SystemConfig:
    return selective_config(ConsistencyModel.RMO)


@pytest.fixture(autouse=True)
def sqlite_guard(monkeypatch):
    """Fail any test that leaves a sqlite connection open in this process.

    Wraps ``sqlite3.connect`` for the test and yields ``(opened, closed)``:
    every connection the test opened, and those it closed.  Only
    Python 3.13 warns about an unclosed connection, so the guard checks
    on every version; it closes what the test left open, then fails it.
    Connections opened in child processes are not seen.
    """
    opened: List = []
    closed: List = []
    real_connect = sqlite3.connect

    class TrackedConnection(sqlite3.Connection):
        def close(self):
            closed.append(self)
            super().close()

    def connect(*args, **kwargs):
        conn = real_connect(*args, factory=TrackedConnection, **kwargs)
        opened.append(conn)
        return conn

    monkeypatch.setattr(sqlite3, "connect", connect)
    yield opened, closed
    closed_ids = {id(conn) for conn in closed}
    left_open = [conn for conn in opened if id(conn) not in closed_ids]
    for conn in left_open:
        conn.close()
    if left_open:
        pytest.fail(f"the test left {len(left_open)} of its "
                    f"{len(opened)} sqlite connection(s) open")


@pytest.fixture
def sqlite_connections(sqlite_guard) -> Tuple[List, List]:
    """``(opened, closed)``: every sqlite connection the test opens, and
    those it closed, as :func:`sqlite_guard` records them."""
    return sqlite_guard
