"""InvisiFence reproduction: performance-transparent memory ordering.

This package reproduces *InvisiFence: Performance-Transparent Memory
Ordering in Conventional Multiprocessors* (Blundell, Martin, Wenisch,
ISCA 2009) as a trace-driven multiprocessor timing simulator plus the
workloads, baselines, and experiment drivers needed to regenerate every
figure of the paper's evaluation.

Quickstart::

    from repro import simulate

    baseline = simulate("sc", "apache", cores=4, ops=4000)
    invisi = simulate("invisi_sc", "apache", cores=4, ops=4000)
    print("speedup:", invisi.speedup_over(baseline))

The stable programmatic surface is :mod:`repro.api` (re-exported here):
:func:`simulate`, :func:`run_study`, :func:`execute_plan`, and
:func:`open_cache`.  Engine-level calls with a prebuilt trace keep
working -- ``simulate(config, trace)`` is a transparent passthrough::

    from repro import ConsistencyModel, build_trace, simulate, small_config

    trace = build_trace("apache", num_threads=4, ops_per_thread=4000, seed=1)
    baseline = simulate(small_config(ConsistencyModel.SC), trace)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured comparison of every figure.
"""

from .api import (
    PlanExecution,
    compile_study_plan,
    execute_plan,
    open_cache,
    run_study,
    simulate,
)
from .campaign import CacheBackend, ConfigRegistry, DEFAULT_REGISTRY
from .config import (
    CacheConfig,
    ConsistencyModel,
    InterconnectConfig,
    SpeculationConfig,
    SpeculationMode,
    StoreBufferConfig,
    StoreBufferKind,
    SystemConfig,
    ViolationPolicy,
    paper_config,
    small_config,
)
from .engine import RunResult, Simulator, build_system
from .errors import (
    CoherenceError,
    ConfigurationError,
    ReproError,
    SimulationError,
    SpeculationError,
    ScenarioError,
    StoreBufferError,
    TraceError,
    WorkloadError,
)
from .scenarios import (
    DEFAULT_SCENARIO_REGISTRY,
    PhaseSpec,
    ScenarioRegistry,
    ScenarioSpec,
    generate_scenario,
    scenario_names,
    scenario_spec,
)
from .trace import MemOp, MultiThreadedTrace, OpKind, Trace, atomic, compute, fence, load, store
from .workloads import WORKLOAD_PRESETS, WorkloadSpec, build_trace, preset, workload_names

__version__ = "1.0.0"

__all__ = [
    # configuration
    "SystemConfig",
    "CacheConfig",
    "StoreBufferConfig",
    "StoreBufferKind",
    "InterconnectConfig",
    "SpeculationConfig",
    "SpeculationMode",
    "ViolationPolicy",
    "ConsistencyModel",
    "paper_config",
    "small_config",
    # campaign
    "CacheBackend",
    "ConfigRegistry",
    "DEFAULT_REGISTRY",
    # engine
    "RunResult",
    "Simulator",
    "build_system",
    # public api facade (repro.api)
    "PlanExecution",
    "compile_study_plan",
    "execute_plan",
    "open_cache",
    "run_study",
    "simulate",
    # traces
    "MemOp",
    "OpKind",
    "Trace",
    "MultiThreadedTrace",
    "load",
    "store",
    "atomic",
    "fence",
    "compute",
    # workloads
    "WorkloadSpec",
    "WORKLOAD_PRESETS",
    "build_trace",
    "preset",
    "workload_names",
    # scenarios
    "DEFAULT_SCENARIO_REGISTRY",
    "PhaseSpec",
    "ScenarioRegistry",
    "ScenarioSpec",
    "generate_scenario",
    "scenario_names",
    "scenario_spec",
    # errors
    "ReproError",
    "ConfigurationError",
    "TraceError",
    "SimulationError",
    "CoherenceError",
    "StoreBufferError",
    "SpeculationError",
    "WorkloadError",
    "ScenarioError",
    "__version__",
]
