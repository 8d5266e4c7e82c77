"""Process-parallel campaign executor.

A :class:`CampaignExecutor` runs a list of :class:`~repro.campaign.jobs.Job`
cells and returns their :class:`~repro.engine.results.RunResult`\\ s in the
order the jobs were given, regardless of how many worker processes computed
them.  With ``jobs=1`` every cell runs in-process (the deterministic serial
path); with ``jobs>1`` missing cells fan out over a ``multiprocessing``
pool.  Because traces are generated deterministically from their seed and
the simulator itself is deterministic, both paths produce bitwise-identical
results.

When a cache backend (:class:`~repro.campaign.backends.CacheBackend`) is
attached, cached cells are served from it and only the missing cells are
simulated; freshly simulated cells are written back, so a repeated
campaign simulates nothing.  The executor makes exactly one ``get`` per
unique cell and one ``put`` per simulated cell.

Worker processes rebuild each trace from its (spec, seed) rather than
receiving it pickled: a trace is orders of magnitude bigger than its spec
and regenerating it is far cheaper than one simulation.  The *resolved*
spec object is shipped (not the workload name) so that scenarios or
presets registered at runtime in the parent also work under spawn-based
``multiprocessing``, where workers re-import the registries from scratch.
The serial path instead builds each (workload, seed, cores) trace once
per :meth:`CampaignExecutor.run` call, so a figure's many configurations
share one trace build, and drops it from its memo after the call's last
job that replays it: a finished trace is freed while the call goes on,
and a later call rebuilds any trace it needs.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..config import SystemConfig
from ..engine.results import RunResult
from ..engine.simulator import simulate
from ..engine.system import validate_engine
from ..obs.recorder import Recorder, active
from ..trace.trace import MultiThreadedTrace
from ..workloads.registry import build_trace, resolve_spec
from .backends import CacheBackend
from .cache import cache_key
from .jobs import Job, dedupe_jobs
from .registry import DEFAULT_REGISTRY, ConfigRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..experiments.common import ExperimentSettings

#: (config, scaled workload/scenario spec, seed, warmup_fraction, engine)
#: -- everything a worker needs to simulate one cell, all cheaply picklable.
_CellPayload = Tuple[SystemConfig, object, int, float, str]


def _simulate_cell(payload: _CellPayload) -> RunResult:
    """Worker entry point: build the trace and simulate one cell."""
    config, spec, seed, warmup_fraction, engine = payload
    trace = build_trace(spec, num_threads=config.num_cores, seed=seed)
    return simulate(config, trace, warmup_fraction=warmup_fraction,
                    engine=engine)


# Timed worker variant, used only when a recorder is attached: it reports
# epoch timestamps and the worker's pid so the parent can place each job on
# the campaign's wall-clock tracks.  Results are unchanged -- the timing
# wraps the exact same simulation call.

def _simulate_cell_timed(payload: _CellPayload):
    start = time.time()
    result = _simulate_cell(payload)
    return result, start, time.time(), os.getpid()


@dataclass
class CampaignReport:
    """What one :meth:`CampaignExecutor.run` call actually did."""

    total: int = 0
    simulated: int = 0
    cache_hits: int = 0
    #: duplicate cells folded into one simulation.
    deduplicated: int = 0

    def describe(self, cache: Optional[CacheBackend] = None) -> str:
        """One-line human summary (shared by the CLI and scripts)."""
        where = "no cache" if cache is None else cache.label
        return (f"{self.simulated} simulated, {self.cache_hits} cache hits "
                f"({where})")

    def merge(self, other: "CampaignReport") -> None:
        """Fold another report's tallies into this one (plan summaries)."""
        self.total += other.total
        self.simulated += other.simulated
        self.cache_hits += other.cache_hits
        self.deduplicated += other.deduplicated


class CampaignExecutor:
    """Fans (config, workload, seed) cells out over worker processes."""

    def __init__(self, settings: "ExperimentSettings", jobs: int = 1,
                 cache: Optional[CacheBackend] = None,
                 registry: Optional[ConfigRegistry] = None,
                 engine: str = "fast",
                 recorder: Optional[Recorder] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.settings = settings
        self.jobs = jobs
        self.cache = cache
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        #: campaign-level observability: per-job wall-clock spans and
        #: ``campaign.*`` tallies.  ``None`` (the default) records nothing;
        #: simulations themselves always run without an engine recorder
        #: here, so their results never depend on telemetry.
        self.recorder = active(recorder)
        #: worker pid -> small campaign tid, for stable trace tracks.
        self._worker_tids: Dict[int, int] = {}
        #: execution kernel for missing cells.  Both engines produce
        #: byte-identical results, so cache keys and entries are
        #: engine-independent.
        self.engine = validate_engine(engine)
        self.last_report = CampaignReport()
        self._traces: Dict[Tuple[str, int, int], MultiThreadedTrace] = {}

    # -- building blocks ----------------------------------------------------

    def config_for(self, job: Job) -> SystemConfig:
        return self.registry.make(job.config_name, self.settings)

    def trace_for(self, workload: str, seed: int,
                  num_threads: Optional[int] = None) -> MultiThreadedTrace:
        """Build (or reuse) the trace for one (workload, seed) cell.

        ``num_threads`` defaults to the settings' core count; a registered
        configuration that overrides ``num_cores`` (a geometry variant)
        gets its own memo entry, so the serial path builds exactly the
        trace a pool worker would rebuild from the shipped config.
        Memoized until a :meth:`run` call's serial path finishes with the
        trace: that path shares one trace across every configuration that
        replays it, then drops it.  A direct caller's trace stays memoized
        until then.
        """
        if num_threads is None:
            num_threads = self.settings.num_cores
        key = (workload, seed, num_threads)
        if key not in self._traces:
            self._traces[key] = build_trace(
                workload, num_threads=num_threads,
                ops_per_thread=self.settings.ops_per_thread, seed=seed)
        return self._traces[key]

    def key_for(self, job: Job) -> str:
        """The cell's persistent cache key."""
        spec = resolve_spec(job.workload, self.settings.ops_per_thread)
        return cache_key(self.config_for(job), spec, job.seed,
                         self.settings.warmup_fraction)

    def payload_for(self, job: Job) -> _CellPayload:
        """Everything a worker process needs to simulate the cell."""
        spec = resolve_spec(job.workload, self.settings.ops_per_thread)
        return (self.config_for(job), spec, job.seed,
                self.settings.warmup_fraction, self.engine)

    # -- execution -----------------------------------------------------------

    def _worker_tid(self, pid: int) -> int:
        """A small, stable campaign-track id for a worker process."""
        tid = self._worker_tids.get(pid)
        if tid is None:
            tid = self._worker_tids[pid] = len(self._worker_tids) + 1
        return tid

    def _job_args(self, job: Job, pid: int) -> Dict[str, object]:
        return {"config": job.config_name, "workload": job.workload,
                "seed": job.seed, "engine": self.engine, "worker": pid}

    def _run_serial(self, missing: List[Job]) -> List[RunResult]:
        """Simulate ``missing`` in this process, in order.

        Jobs that replay one trace share one build, and each trace leaves
        the memo after the last of these jobs that replays it, so the
        trace and every machine built on it are freed as soon as they are
        done with.
        """
        rec = self.recorder
        configs = [self.config_for(job) for job in missing]
        keys = [(job.workload, job.seed, config.num_cores)
                for job, config in zip(missing, configs)]
        last_use = {key: i for i, key in enumerate(keys)}
        results = []
        for i, (job, config, key) in enumerate(zip(missing, configs, keys)):
            trace = self.trace_for(*key)
            if last_use[key] == i:
                del self._traces[key]
            start = time.time() if rec is not None else 0.0
            results.append(simulate(
                config, trace, warmup_fraction=self.settings.warmup_fraction,
                engine=self.engine))
            # Unbind it, so a trace the memo dropped is freed before the
            # next build.
            del trace
            if rec is not None:
                rec.wall_span(0, "job", start, time.time(),
                              self._job_args(job, os.getpid()))
        return results

    def run(self, jobs: Sequence[Job]) -> List[RunResult]:
        """Run ``jobs``; returns results in the same order as the input."""
        jobs = list(jobs)
        unique = dedupe_jobs(jobs)
        report = CampaignReport(total=len(jobs),
                                deduplicated=len(jobs) - len(unique))
        rec = self.recorder

        results: Dict[Job, RunResult] = {}
        keys: Dict[Job, str] = {}
        missing: List[Job] = []
        for job in unique:
            if self.cache is not None:
                keys[job] = self.key_for(job)
                cached = self.cache.get(keys[job])
                if cached is not None:
                    results[job] = cached
                    report.cache_hits += 1
                    continue
            missing.append(job)

        report.simulated = len(missing)
        if missing:
            workers = min(self.jobs, len(missing))
            if workers > 1:
                payloads = [self.payload_for(job) for job in missing]
                with multiprocessing.Pool(processes=workers) as pool:
                    if rec is not None:
                        timed = pool.map(_simulate_cell_timed, payloads,
                                         chunksize=1)
                        simulated = []
                        for job, (result, start, end, pid) in zip(missing,
                                                                  timed):
                            rec.wall_span(self._worker_tid(pid), "job",
                                          start, end, self._job_args(job, pid))
                            simulated.append(result)
                    else:
                        simulated = pool.map(_simulate_cell, payloads,
                                             chunksize=1)
            else:
                simulated = self._run_serial(missing)
            for job, result in zip(missing, simulated):
                results[job] = result
                if self.cache is not None:
                    self.cache.put(keys[job], result)

        if rec is not None:
            rec.count("campaign.jobs", report.total)
            rec.count("campaign.simulated", report.simulated)
            rec.count("campaign.cache_hits", report.cache_hits)
            rec.count("campaign.deduplicated", report.deduplicated)
        self.last_report = report
        return [results[job] for job in jobs]
