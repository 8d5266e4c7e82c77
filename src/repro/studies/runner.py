"""Study execution: the one way a named cell runs.

A :class:`StudyRunner` runs :class:`StudyCell`\\ s through the result
cache and keeps one memo of their results.  Cells run one machine size
at a time, sizes in first-appearance order.  For each size the runner
makes one cache ``get`` per unique cell, simulates the misses in order,
then makes one ``put`` per simulated cell, so a repeated campaign
simulates nothing.  With ``jobs=1`` the misses run in this process; with
``jobs>1`` they fan out over a ``multiprocessing`` pool whose workers
rebuild each trace from its :data:`~repro.campaign.cells.CellPayload`.
Traces are generated deterministically from their seed and the simulator
is deterministic, so both paths produce bitwise-identical results.

The serial path builds each (workload, seed, cores) trace once per size,
so a figure's many configurations share one build, and drops it from
the memo after the last cell of that size that replays it: a finished
trace is freed while the campaign goes on.

:func:`run_study` is the single entry point for one study: expand the
grid, run every missing cell, hand a :class:`StudyContext` to the spec's
``build`` hook, and optionally write JSON/CSV artifacts.

Imports from :mod:`repro.experiments` are deferred to call time: the
experiments layer imports this package (its modules register the
built-in specs), so a module-scope import here would be circular.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from ..campaign.backends import CacheBackend
from ..campaign.cache import cache_key
from ..campaign.cells import (
    CampaignReport,
    CellPayload,
    simulate_cell,
    simulate_cell_timed,
)
from ..campaign.registry import ConfigFactory, ConfigRegistry, DEFAULT_REGISTRY
from ..config import SystemConfig
from ..engine.results import RunResult
from ..engine.simulator import simulate
from ..errors import StudyError
from ..obs.recorder import Recorder, active
from ..trace.trace import MultiThreadedTrace
from ..workloads.registry import build_trace, resolve_spec
from .artifacts import write_artifacts
from .metrics import METRICS, normalized_breakdown, speedup
from .spec import StudyCell, StudySpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from pathlib import Path

    from ..experiments.common import ExperimentSettings


def overlay_registry(base: ConfigRegistry,
                     extras: Mapping[str, ConfigFactory]) -> ConfigRegistry:
    """``base`` extended with ``extras``; re-adding the same factory is a no-op.

    A name already present with a *different* factory is a real conflict
    (the study would silently run someone else's machine), so it raises.
    """
    missing: Dict[str, ConfigFactory] = {}
    for name, factory in extras.items():
        if name in base:
            if base.factory(name) is not factory:
                raise StudyError(
                    f"study configuration {name!r} conflicts with an "
                    f"existing registration of the same name")
        else:
            missing[name] = factory
    if not missing:
        return base
    return ConfigRegistry(missing, parent=base)


class StudyRunner:
    """The one way a named cell runs through the result cache.

    Holds the worker-pool width, result cache and configuration registry
    shared by every machine size, the serial path's trace memo, and one
    memo of every result this runner has produced, keyed by
    :class:`StudyCell`.
    """

    def __init__(self, settings: "ExperimentSettings", jobs: int = 1,
                 cache: Optional[CacheBackend] = None,
                 registry: Optional[ConfigRegistry] = None,
                 recorder: Optional[Recorder] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.settings = settings
        self.jobs = jobs
        self.cache = cache
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        #: campaign-level observability: per-job wall-clock spans and
        #: ``campaign.*`` tallies.  ``None`` (the default) records nothing;
        #: cells always run without an engine recorder, so their results
        #: never depend on telemetry.
        self.recorder = active(recorder)
        #: worker pid -> small campaign tid, for stable trace tracks.
        self._worker_tids: Dict[int, int] = {}
        self._traces: Dict[Tuple[str, int, int], MultiThreadedTrace] = {}
        self._results: Dict[StudyCell, RunResult] = {}

    def require_configs(self, extras: Mapping[str, ConfigFactory]) -> None:
        """Make a study's private configuration variants resolvable."""
        if extras:
            self.registry = overlay_registry(self.registry, extras)

    # -- one cell -------------------------------------------------------------

    def config_for(self, cell: StudyCell) -> SystemConfig:
        settings = self.settings
        if cell.num_cores != settings.num_cores:
            settings = dataclasses.replace(settings, num_cores=cell.num_cores)
        return self.registry.make(cell.config_name, settings)

    def key_for(self, cell: StudyCell) -> str:
        """The cell's persistent cache key."""
        spec = resolve_spec(cell.workload, self.settings.ops_per_thread)
        return cache_key(self.config_for(cell), spec, cell.seed,
                         self.settings.warmup_fraction)

    def payload_for(self, cell: StudyCell) -> CellPayload:
        """Everything a worker process needs to simulate the cell."""
        spec = resolve_spec(cell.workload, self.settings.ops_per_thread)
        return (self.config_for(cell), spec, cell.seed,
                self.settings.warmup_fraction)

    def trace_for(self, workload: str, seed: int,
                  num_threads: int) -> MultiThreadedTrace:
        """Build (or reuse) the trace for one (workload, seed, cores) cell.

        ``num_threads`` is the configuration's core count, so a registered
        configuration that overrides ``num_cores`` (a geometry variant)
        gets its own memo entry, and the serial path builds exactly the
        trace a pool worker would rebuild from the shipped config.  The
        trace stays memoized until the serial path has replayed it for
        the last time in one machine size's cells.
        """
        key = (workload, seed, num_threads)
        if key not in self._traces:
            self._traces[key] = build_trace(
                workload, num_threads=num_threads,
                ops_per_thread=self.settings.ops_per_thread, seed=seed)
        return self._traces[key]

    # -- execution ------------------------------------------------------------

    def _worker_tid(self, pid: int) -> int:
        """A small, stable campaign-track id for a worker process."""
        tid = self._worker_tids.get(pid)
        if tid is None:
            tid = self._worker_tids[pid] = len(self._worker_tids) + 1
        return tid

    @staticmethod
    def _job_args(cell: StudyCell, pid: int) -> Dict[str, object]:
        return {"config": cell.config_name, "workload": cell.workload,
                "seed": cell.seed, "worker": pid}

    def _run_serial(self, missing: List[StudyCell]) -> List[RunResult]:
        """Simulate ``missing`` in this process, in order.

        Cells that replay one trace share one build, and each trace leaves
        the memo after the last of these cells that replays it, so the
        trace and every machine built on it are freed as soon as they are
        done with.
        """
        rec = self.recorder
        warmup = self.settings.warmup_fraction
        configs = [self.config_for(cell) for cell in missing]
        keys = [(cell.workload, cell.seed, config.num_cores)
                for cell, config in zip(missing, configs)]
        last_use = {key: i for i, key in enumerate(keys)}
        results = []
        for i, (cell, config, key) in enumerate(zip(missing, configs, keys)):
            trace = self.trace_for(*key)
            if last_use[key] == i:
                del self._traces[key]
            start = time.time() if rec is not None else 0.0
            results.append(simulate(config, trace, warmup_fraction=warmup))
            # Unbind it, so a trace the memo dropped is freed before the
            # next build.
            del trace
            if rec is not None:
                rec.wall_span(0, "job", start, time.time(),
                              self._job_args(cell, os.getpid()))
        return results

    def _run_pool(self, missing: List[StudyCell],
                  workers: int) -> List[RunResult]:
        """Simulate ``missing`` on a pool of ``workers`` processes."""
        rec = self.recorder
        payloads = [self.payload_for(cell) for cell in missing]
        with multiprocessing.Pool(processes=workers) as pool:
            if rec is None:
                return pool.map(simulate_cell, payloads, chunksize=1)
            timed = pool.map(simulate_cell_timed, payloads, chunksize=1)
        results = []
        for cell, (result, start, end, pid) in zip(missing, timed):
            rec.wall_span(self._worker_tid(pid), "job", start, end,
                          self._job_args(cell, pid))
            results.append(result)
        return results

    def _run_size(self, cells: List[StudyCell],
                  report: CampaignReport) -> None:
        """Run one machine size's unique, unmemoized cells.

        One ``get`` per cell, then the misses simulated in order, then one
        ``put`` per simulated cell.
        """
        cache = self.cache
        keys: Dict[StudyCell, str] = {}
        missing: List[StudyCell] = []
        for cell in cells:
            if cache is not None:
                keys[cell] = self.key_for(cell)
                cached = cache.get(keys[cell])
                if cached is not None:
                    self._results[cell] = cached
                    report.cache_hits += 1
                    continue
            missing.append(cell)
        if not missing:
            return
        report.simulated += len(missing)
        workers = min(self.jobs, len(missing))
        simulated = (self._run_pool(missing, workers) if workers > 1
                     else self._run_serial(missing))
        for cell, result in zip(missing, simulated):
            self._results[cell] = result
            if cache is not None:
                cache.put(keys[cell], result)

    def run_cells(self, cells: Sequence[StudyCell]) -> CampaignReport:
        """Run every cell not yet memoized; returns what the campaign did.

        Machine sizes run in first-appearance order.  The build hooks
        afterwards only read memoized results, so they record nothing.
        """
        cells = list(cells)
        unique = list(dict.fromkeys(cells))
        report = CampaignReport(total=len(cells),
                                deduplicated=len(cells) - len(unique))
        sizes: Dict[int, List[StudyCell]] = {}
        for cell in unique:
            if cell not in self._results:
                sizes.setdefault(cell.num_cores, []).append(cell)
        for group in sizes.values():
            self._run_size(group, report)
        rec = self.recorder
        if rec is not None and sizes:
            rec.count("campaign.jobs", sum(map(len, sizes.values())))
            rec.count("campaign.simulated", report.simulated)
            rec.count("campaign.cache_hits", report.cache_hits)
            rec.count("campaign.deduplicated", report.deduplicated)
        return report

    def result(self, cell: StudyCell) -> RunResult:
        """One cell's result, run the first time it is asked for."""
        if cell not in self._results:
            self.run_cells([cell])
        return self._results[cell]


class StudyContext:
    """What a study's ``build`` hook sees: settings, runs, and metrics."""

    def __init__(self, spec: StudySpec, settings: "ExperimentSettings",
                 runner: StudyRunner, report: CampaignReport) -> None:
        self.spec = spec
        self.settings = settings
        self.study_runner = runner
        #: what the campaign actually did for this study's cells.
        self.report = report

    # -- raw results ---------------------------------------------------------

    def run(self, config: str, workload: str, seed: int,
            cores: Optional[int] = None) -> RunResult:
        if cores is None:
            cores = self.settings.num_cores
        return self.study_runner.result(
            StudyCell(cores, config, workload, seed))

    def runs(self, config: str, workload: str,
             cores: Optional[int] = None) -> List[RunResult]:
        """One result per seed (the settings' seeds)."""
        return [self.run(config, workload, seed, cores)
                for seed in self.settings.seeds]

    # -- metric pipeline -----------------------------------------------------

    def mean_metric(self, metric: str, config: str, workload: str,
                    cores: Optional[int] = None) -> float:
        """Seed-mean of a named metric (see :data:`repro.studies.METRICS`)."""
        try:
            aggregate = METRICS[metric]
        except KeyError:
            raise StudyError(
                f"unknown metric {metric!r}; known: "
                f"{', '.join(sorted(METRICS))}") from None
        return aggregate(self.runs(config, workload, cores=cores))

    def speedup(self, config: str, workload: str, baseline: str) -> float:
        return speedup(self.runs(config, workload),
                       self.runs(baseline, workload))

    def normalized_breakdown(self, config: str, workload: str,
                             baseline: str) -> Dict[str, float]:
        """Breakdown of ``config`` as % of the baseline's runtime."""
        return normalized_breakdown(self.runs(config, workload),
                                    self.runs(baseline, workload))

    def speculation_fraction(self, config: str, workload: str) -> float:
        return METRICS["speculation_fraction"](self.runs(config, workload))


def run_study(study: Union[str, StudySpec],
              settings: Optional["ExperimentSettings"] = None,
              study_runner: Optional[StudyRunner] = None,
              jobs: int = 1,
              cache: Optional[CacheBackend] = None,
              out_dir: Optional[Union[str, "Path"]] = None,
              recorder: Optional[Recorder] = None):
    """Execute one study end to end; returns its result object.

    ``study`` is a :class:`StudySpec` or a name registered in
    :data:`~repro.studies.registry.DEFAULT_STUDY_REGISTRY`.  Pass
    ``study_runner`` to share its memoized results with other studies
    (e.g. after :meth:`StudyPlan.execute`); otherwise a fresh runner with
    ``jobs``/``cache``/``recorder`` runs the study's cells.
    With ``out_dir`` set, the study's JSON + CSV artifacts are written
    there.
    """
    from ..experiments.common import ExperimentSettings
    from .registry import DEFAULT_STUDY_REGISTRY

    spec = study if isinstance(study, StudySpec) \
        else DEFAULT_STUDY_REGISTRY.get(study)
    if settings is None:
        settings = ExperimentSettings()
    if study_runner is None:
        study_runner = StudyRunner(settings, jobs=jobs, cache=cache,
                                   recorder=recorder)
    study_runner.require_configs(spec.extra_configs)
    report = study_runner.run_cells(spec.cells(settings))
    result = spec.build(StudyContext(spec, settings, study_runner, report))
    if out_dir is not None:
        write_artifacts(spec, settings, spec.tabulate(result), out_dir)
    return result
