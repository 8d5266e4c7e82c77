"""Simulation driver."""

from __future__ import annotations

from typing import Optional

from ..config import SystemConfig
from ..errors import SimulationError
from ..obs.recorder import Recorder
from ..trace.trace import MultiThreadedTrace
from .results import RunResult
from .system import System, build_system, validate_engine

#: Hard cap on processed events, as a runaway-simulation backstop.  The cap
#: scales with trace size inside :class:`Simulator`.  It is generous because
#: continuous speculation under heavy contention can replay the same
#: operations many times before making progress.
_EVENTS_PER_OP_LIMIT = 512


class Simulator:
    """Runs a :class:`~repro.engine.system.System` to completion."""

    def __init__(self, system: System) -> None:
        self.system = system

    def run(self, max_events: Optional[int] = None,
            seed: Optional[int] = None) -> RunResult:
        """Run until every core has finished its trace.

        ``seed`` is the workload generator seed recorded in the result;
        :class:`RunResult` is immutable, so it must be supplied here rather
        than patched on afterwards.
        """
        system = self.system
        if max_events is None:
            total_ops = sum(len(core.trace) for core in system.cores)
            max_events = max(10_000, _EVENTS_PER_OP_LIMIT * total_ops)
        system.start()
        processed = 0
        while not system.finished:
            count = system.events.run(max_events=max_events - processed)
            processed += count
            if system.finished:
                break
            if count == 0 or processed >= max_events:
                unfinished = [c.core_id for c in system.cores if not c.finished]
                raise SimulationError(
                    f"simulation stalled with cores {unfinished} unfinished "
                    f"after {processed} events"
                )
        if system.recorder is not None:
            collect_run_gauges(system, system.recorder)
        phase_names = system.phase_names
        phase_stats = None
        if phase_names:
            per_core = [core.phase_stats() for core in system.cores]
            phase_stats = [[core_phases[p] for core_phases in per_core]
                           for p in range(len(phase_names))]
        return RunResult(
            config=system.config,
            workload=system.workload_name,
            core_stats=[core.stats for core in system.cores],
            runtime=system.finish_time(),
            seed=seed,
            phase_names=phase_names,
            phase_stats=phase_stats,
        )


def collect_run_gauges(system: System, rec: Recorder) -> None:
    """Fold a finished run's end-of-run gauges into the recorder.

    Store-buffer high-water marks, the memory system's per-core tallies
    and the event queue's heap traffic are plain attributes maintained
    unconditionally; collecting them once at run end keeps them out of
    the hot paths entirely.
    """
    for name, value in system.events.tally().items():
        rec.count(f"engine.{name}", value)
    for core in system.cores:
        controller = core.controller
        if controller is None:
            continue
        sb = controller.sb
        rec.observe("sb.peak_occupancy", sb.peak_occupancy)
        rec.count("sb.inserted", sb.total_inserted)
        rec.count("sb.flash_invalidated", sb.flash_invalidated)
        coalesced = getattr(sb, "coalesced", 0)
        if coalesced:
            rec.count("sb.coalesced", coalesced)
    memory = system.memory
    rec.count("coherence.l1_hits", sum(memory.l1_hits))
    rec.count("coherence.l1_misses", sum(memory.l1_misses))
    rec.count("coherence.upgrades", sum(memory.upgrades))
    rec.count("coherence.conflicts", memory.conflicts_detected)


def simulate(config: SystemConfig, trace: MultiThreadedTrace,
             max_events: Optional[int] = None,
             warmup_fraction: float = 0.0, engine: str = "fast",
             recorder: Optional[Recorder] = None) -> RunResult:
    """Build a system for ``trace``, run it, and free it.

    ``engine`` selects the execution kernel: ``"fast"`` (batched steps,
    flat controller kernels, allocation-free hit path) or ``"reference"``
    (the original one-event-per-op path).  Results are bitwise identical
    across both; an unknown name raises
    :class:`~repro.errors.ConfigurationError` naming the valid engines.

    The machine belongs to this call.  Once the result exists, or the run
    has raised, :meth:`System.release` breaks its reference cycles, so it
    is freed by reference counting on return and leaves no work for the
    cyclic collector.  The result keeps only the cores' statistics.  To
    inspect a machine after its run, use :func:`build_system` and
    :class:`Simulator`, which leave it intact.
    """
    validate_engine(engine)
    system = build_system(config, trace, warmup_fraction=warmup_fraction,
                          engine=engine, recorder=recorder)
    try:
        return Simulator(system).run(max_events=max_events, seed=trace.seed)
    finally:
        system.release()
