"""The four benchmark workloads, driven through ``repro``'s public API.

Each workload splits one pass into an untimed :meth:`prepare`, a timed
:meth:`timed` call and an untimed :meth:`cleanup`.  The simulator is
driven only through ``repro.api`` (``simulate``, ``execute_plan``,
``compile_study_plan``, ``open_cache``) and
``repro.workloads.registry.build_trace``; the plan's settings and study
list are declared with ``repro.experiments`` and the study registry.  No
engine is named, so the default engine runs, and ``jobs=1`` keeps every
cell in this process.
"""

from __future__ import annotations

import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.api import compile_study_plan, execute_plan, open_cache, simulate
from repro.experiments.common import ExperimentSettings
from repro.experiments.scaling import scaling_study
from repro.studies.registry import DEFAULT_STUDY_REGISTRY
from repro.workloads.registry import build_trace

from catalogue import (SCALING_CORES, STUDIES_CORES, STUDIES_OPS,
                       STUDIES_WORKLOADS)
from calibrate import ReferenceClock
from layers import CountingRecorder, Tracer, wrapped_cache

#: plan compilations timed per run; setup_s takes their median.
COMPILE_REPEATS = 5

#: spec-storm cells per pass.  Simulated work per false-sharing-storm
#: seed varies with a coefficient of variation of about 0.2; six cells
#: bring the pass total to about 0.08.  conv-oltp needs one cell: its
#: work per seed varies by well under 0.1 %.
STORM_CELLS = 6


def span(tracer: Optional[Tracer], name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def report_exception(what: str) -> None:
    print(f"[{what}] raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class Outcome:
    """What one timed call did."""

    #: results of the cells completed (simulated or served from cache).
    results: list
    attempted: int
    failed: int
    #: results this call simulated (not served from a cache).
    simulated: list = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    #: formatted study tables (studies-*), compared across passes.
    tables: Optional[List[str]] = None


class CellWorkload:
    """One configuration on one workload, over ``cells`` seeds per pass.

    The cell seeds are derived from the run's seed.  Several cells per
    pass average out how much simulated work a single seed happens to
    generate, which on contended workloads varies by about 20 % per cell.
    """

    def __init__(self, config: str, workload: str, cores: int, ops: int,
                 seed: int, cells: int) -> None:
        self.config, self.workload = config, workload
        self.cores, self.ops = cores, ops
        self.seeds = [seed * cells + i for i in range(cells)]
        self._traces: list = []

    def setup(self, clock: ReferenceClock,
              tracer: Optional[Tracer] = None) -> List[float]:
        return []

    def prepare(self, tracer: Optional[Tracer] = None) -> float:
        """Build fresh traces; returns their CPU seconds (a setup sample)."""
        start = time.process_time()
        self._traces = []
        for seed in self.seeds:
            with span(tracer, "build_trace"):
                self._traces.append(build_trace(
                    self.workload, num_threads=self.cores,
                    ops_per_thread=self.ops, seed=seed))
        return time.process_time() - start

    def timed(self, tracer: Optional[Tracer] = None, recorder=None,
              clock: Optional[ReferenceClock] = None) -> Outcome:
        """Simulate every trace; ``clock`` splits between the cells."""
        results, failed = [], 0
        for i, trace in enumerate(self._traces):
            if clock is not None and i:
                clock.split()
            try:
                with span(tracer, "simulate"):
                    results.append(simulate(self.config, trace,
                                            recorder=recorder))
            except Exception:  # a cell that raises or stalls counts as failed
                report_exception(f"simulate {self.config} {self.workload}")
                failed += 1
        return Outcome(results=results, attempted=len(self._traces),
                       failed=failed, simulated=results)

    def cleanup(self) -> None:
        self._traces = []

    def ops_of(self, result) -> int:
        return self.cores * self.ops

    def recorder_pass(self, tracer: Tracer, recorder: CountingRecorder,
                      reference: list) -> None:
        """Nothing to do: the span pass already ran with the recorder."""
        return None


class StudiesWorkload:
    """The all-studies plan at the ``repro bench`` default scale.

    Each pass executes the plan and then builds every study's result
    object and its ``format()`` table, as ``repro study run --all`` does.
    Cold: the plan runs into a fresh directory cache, so every unique cell
    is simulated and stored.  Warm: the cache is filled once during
    set-up, and every pass serves the whole plan from it.
    """

    def __init__(self, warm: bool, seed: int, work_dir: Path) -> None:
        self.warm = warm
        self.settings = ExperimentSettings(
            num_cores=STUDIES_CORES, ops_per_thread=STUDIES_OPS,
            seeds=(seed,), workloads=STUDIES_WORKLOADS, warmup_fraction=0.0)
        self.specs = [scaling_study(core_counts=SCALING_CORES)
                      if spec.name == "scaling" else spec
                      for spec in DEFAULT_STUDY_REGISTRY.specs()]
        self.work_dir = work_dir
        self.unique = 0
        self.compile_samples: List[float] = []
        self.fill_s = 0.0
        self._passes = 0
        self._cache_dir: Optional[Path] = None

    def setup(self, clock: ReferenceClock,
              tracer: Optional[Tracer] = None) -> List[float]:
        """Compile the plan (timed, repeated); warm also fills the cache.

        Each compilation is bracketed by calibration slices and its
        sample is in reference CPU seconds.
        """
        after = clock.slice()
        for _ in range(COMPILE_REPEATS):
            before = after
            start = time.process_time()
            with span(tracer, "compile_study_plan"):
                plan = compile_study_plan(self.specs, self.settings)
            cpu = time.process_time() - start
            after = clock.slice()
            self.compile_samples.append(clock.rescale(cpu, before, after))
        self.unique = len(plan.unique_cells)
        if self.warm:
            self._cache_dir = self.work_dir / "warm-cache"
            start = time.process_time()
            with span(tracer, "cache_fill"):
                execution = execute_plan(self.specs, self.settings, jobs=1,
                                         cache=str(self._cache_dir))
            self.fill_s = time.process_time() - start
            if execution.report.simulated != self.unique:
                raise RuntimeError(
                    f"cache fill simulated {execution.report.simulated} of "
                    f"{self.unique} cells")
        return self.compile_samples

    def prepare(self, tracer: Optional[Tracer] = None) -> None:
        if not self.warm:
            self._passes += 1
            self._cache_dir = self.work_dir / f"cold-cache-{self._passes}"
        return None

    def timed(self, tracer: Optional[Tracer] = None, recorder=None,
              clock: Optional[ReferenceClock] = None) -> Outcome:
        """Execute the plan; the plan gives its cells no engine recorder.

        ``clock`` splits after every cache write, so on studies-cold the
        cells are measured between calibration slices.
        """
        gets: list = []
        puts: list = []
        tables = None
        failed = 0
        cache = open_cache(str(self._cache_dir))
        try:
            split = None if clock is None else clock.split
            with wrapped_cache(cache, tracer, gets, puts, split):
                with span(tracer, "execute_plan"):
                    execution = execute_plan(self.specs, self.settings,
                                             jobs=1, cache=cache)
            with span(tracer, "results"):
                tables = [result.format() for result
                          in execution.results().values()]
        except Exception:
            report_exception("execute_plan")
            failed = self.unique
        hits = [result for result in gets if result is not None]
        served = hits if self.warm else puts
        if not failed:
            # Cold cells must all be simulated and stored; warm cells must
            # all be read from the cache, so one simulated counts as failed.
            failed = self.unique - len(served)
        return Outcome(results=served, attempted=self.unique, failed=failed,
                       simulated=puts, cache_hits=len(hits),
                       cache_misses=len(gets) - len(hits),
                       cache_stores=len(puts), tables=tables)

    def cleanup(self) -> None:
        if not self.warm:
            shutil.rmtree(self._cache_dir, ignore_errors=True)

    def ops_of(self, result) -> int:
        return result.config.num_cores * STUDIES_OPS

    def recorder_pass(self, tracer: Tracer, recorder: CountingRecorder,
                      reference: list) -> Optional[Outcome]:
        """Re-simulate the cells the timed pass simulates, with a recorder.

        The plan's executor does not pass an engine recorder to its cells,
        so each simulated cell is rebuilt from its result's configuration,
        workload and seed, one trace per (workload, seed, cores) as the
        executor memoizes them.  Nothing is simulated on studies-warm.
        """
        if self.warm:
            return None
        traces: Dict[tuple, object] = {}
        results, failed = [], 0
        with tracer.span("cells"):
            for cell in reference:
                key = (cell.workload, cell.seed, cell.config.num_cores)
                try:
                    if key not in traces:
                        with tracer.span("build_trace"):
                            traces[key] = build_trace(
                                cell.workload, num_threads=key[2],
                                ops_per_thread=STUDIES_OPS, seed=cell.seed)
                    with tracer.span("simulate"):
                        results.append(simulate(cell.config, traces[key],
                                                recorder=recorder))
                except Exception:
                    report_exception(f"re-simulate {cell.workload}")
                    failed += 1
        bad_ops = [k for k, t in traces.items()
                   if t.total_ops() != k[2] * STUDIES_OPS]
        return Outcome(results=results, attempted=len(reference),
                       failed=failed + len(bad_ops), simulated=results)


def make_workload(name: str, seed: int, work_dir: Path):
    if name == "spec-storm":
        return CellWorkload("invisi_sc", "false-sharing-storm", 16, 2000, seed,
                            cells=STORM_CELLS)
    if name == "conv-oltp":
        return CellWorkload("sc", "oltp-oracle", 16, 4000, seed, cells=1)
    if name in ("studies-cold", "studies-warm"):
        return StudiesWorkload(name == "studies-warm", seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")
