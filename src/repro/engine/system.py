"""System construction: wire cores, controllers, and the memory system.

:func:`build_system` assembles a complete simulated machine from a
:class:`~repro.config.SystemConfig` and a multi-threaded trace, choosing
the consistency controller implied by the configuration's speculation
mode:

==============  =====================================================
Speculation     Controller
==============  =====================================================
``none``        conventional SC / TSO / RMO (Section 2.1)
``selective``   :class:`repro.core.selective.InvisiFenceSelective`
``continuous``  :class:`repro.core.continuous.InvisiFenceContinuous`
``aso``         :class:`repro.aso.controller.ASOController`
==============  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..aso.controller import ASOController
from ..coherence.memory_system import MemorySystem
from ..config import SpeculationMode, SystemConfig
from ..consistency.base import ConsistencyController
from ..consistency.conventional import conventional_controller
from ..core.continuous import InvisiFenceContinuous
from ..core.selective import InvisiFenceSelective
from ..cpu.core import Core
from ..errors import ConfigurationError
from ..obs.recorder import Recorder, active
from ..trace.trace import MultiThreadedTrace
from .events import EventQueue


def make_controller(core: Core) -> ConsistencyController:
    """Instantiate the controller selected by the core's configuration."""
    mode = core.config.speculation.mode
    if mode is SpeculationMode.NONE:
        return conventional_controller(core)
    if mode is SpeculationMode.SELECTIVE:
        return InvisiFenceSelective(core)
    if mode is SpeculationMode.CONTINUOUS:
        return InvisiFenceContinuous(core)
    if mode is SpeculationMode.ASO:
        return ASOController(core)
    raise ConfigurationError(f"unknown speculation mode {mode}")  # pragma: no cover


@dataclass
class System:
    """A fully wired simulated machine."""

    config: SystemConfig
    events: EventQueue
    memory: MemorySystem
    cores: List[Core]
    workload_name: str = "anonymous"
    #: phase labels for phase-structured traces (scenario runs).
    phase_names: Optional[Tuple[str, ...]] = None
    #: the *active* recorder wired through every component, or ``None``
    #: when telemetry is off (see :mod:`repro.obs`).
    recorder: Optional[Recorder] = None

    def start(self) -> None:
        """Schedule the first step of every core."""
        for core in self.cores:
            core.start(at=0)

    @property
    def finished(self) -> bool:
        return all(core.finished for core in self.cores)

    def finish_time(self) -> int:
        return max((core.finish_time or 0) for core in self.cores)

    def release(self) -> None:
        """Break the machine's reference cycles; it cannot run again.

        Cores and controllers hold each other, the memory system's
        listener map holds every controller, and each core keeps a bound
        method of itself as its step.  Once each part drops its side, the
        whole machine is freed by reference counting as soon as the last
        outside reference goes, instead of waiting for the cyclic
        collector.  Only :func:`~repro.engine.simulator.simulate`, which
        owns the machine it builds, calls this (DESIGN section 10).
        """
        self.events.release()
        self.memory.release()
        for core in self.cores:
            core.release()


#: Engine variants accepted by :func:`build_system`.  ``"fast"`` batches
#: core steps and runs the controllers' flat kernels over the memory
#: system's hit probes; ``"reference"`` retains the original
#: one-event-per-op, allocation-per-outcome execution path and exists so the
#: differential suite can prove the fast path bitwise-equivalent.
ENGINE_KINDS = ("fast", "reference")


def validate_engine(engine: str) -> str:
    """Check ``engine`` against :data:`ENGINE_KINDS`; return it unchanged.

    Raised eagerly by both entry points that accept an engine name,
    ``simulate`` (which ``repro profile --engine`` calls) and
    ``build_system``, so an unknown name fails with one clear message
    instead of falling through to a partially-wired system.
    """
    if engine not in ENGINE_KINDS:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of "
            + "|".join(ENGINE_KINDS)
        )
    return engine


def build_system(config: SystemConfig, trace: MultiThreadedTrace,
                 warmup_fraction: float = 0.0, engine: str = "fast",
                 recorder: Optional[Recorder] = None) -> System:
    """Build a system running ``trace`` under ``config``.

    The trace must provide at least as many threads as the configuration
    has cores: extra threads are ignored, and fewer threads than cores
    raise :class:`~repro.errors.ConfigurationError`.  ``warmup_fraction``
    of each thread's leading operations are executed but excluded from
    the statistics (cache warmup).  ``engine`` selects the execution
    kernel (see :data:`ENGINE_KINDS`); both kernels produce identical
    results.  The returned system stays wired after a run, so a caller
    can inspect it; only :func:`~repro.engine.simulator.simulate` frees
    the machine it builds.

    ``recorder`` attaches the observability layer: hooks throughout the
    stack record speculation episodes, stall spans, and coherence events
    into it.  ``None`` or a disabled recorder leaves every hook behind its
    single ``is not None`` check; recorders only observe, so results are
    byte-identical either way.
    """
    if trace.num_threads < config.num_cores:
        raise ConfigurationError(
            f"workload {trace.name!r} has {trace.num_threads} threads but the "
            f"system is configured with {config.num_cores} cores"
        )
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError("warmup_fraction must lie in [0, 1)")
    validate_engine(engine)
    rec = active(recorder)
    events = EventQueue()
    # The engine flag lives on the memory system; each core reads it there.
    memory = MemorySystem(config, fast_path=engine != "reference",
                          recorder=rec)
    cores: List[Core] = []
    phase_bounds = trace.phase_bounds
    for core_id in range(config.num_cores):
        thread_trace = trace[core_id]
        warmup_ops = int(len(thread_trace) * warmup_fraction)
        core = Core(core_id, thread_trace, config, memory, events,
                    warmup_ops=warmup_ops, phase_bounds=phase_bounds)
        core.obs = rec
        controller = make_controller(core)
        core.attach_controller(controller)
        cores.append(core)
    return System(config=config, events=events, memory=memory, cores=cores,
                  workload_name=trace.name, phase_names=trace.phase_names,
                  recorder=rec)
