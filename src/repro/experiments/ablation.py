"""Ablation studies for the design choices the paper calls out.

Two sensitivity studies are mentioned in the paper but not plotted:

* **Store-buffer capacity** (Section 6.1): "We performed sensitivity studies
  (not shown) to determine store buffer capacities for InvisiFence that
  provide performance close to that of a store buffer of unbounded capacity.
  For InvisiFence configurations that employ a single checkpoint, a store
  buffer with eight entries suffices."  :func:`store_buffer_study`
  sweeps the coalescing-buffer size for single-checkpoint
  InvisiFence-Selective and reports the runtime relative to the largest size
  in the sweep.

* **Commit-on-violate timeout** (Section 3.2 / 6.6): the paper fixes the
  deferral window at 4000 cycles.  :func:`cov_timeout_study` sweeps
  the timeout for InvisiFence-Continuous with CoV and reports runtime,
  violation cycles, and how the conflicts were resolved, showing the
  saturation behaviour that justifies the choice.

Each swept point is a *study-private* configuration variant
(``invisi_sc_sb8``, ``invisi_cont_cov_t1000``, ...) overlaid on the
default registry while the study runs, so ablation cells go through the
same study runner, result cache, and dedup plan as every figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from ..campaign.registry import ConfigFactory
from ..config import (
    ConsistencyModel,
    SpeculationConfig,
    SpeculationMode,
    StoreBufferConfig,
    StoreBufferKind,
    SystemConfig,
    ViolationPolicy,
    paper_config,
)
from ..stats.report import format_table
from ..studies.artifacts import StudyTable
from ..studies.registry import register_study
from ..studies.runner import StudyContext
from ..studies.spec import StudySpec
from .common import ExperimentSettings

DEFAULT_SB_SIZES = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_COV_TIMEOUTS = (0, 250, 1000, 4000, 16000)


def _sb_name(entries: int) -> str:
    return f"invisi_sc_sb{entries}"


@lru_cache(maxsize=None)
def _sb_factory(entries: int) -> ConfigFactory:
    """Single-checkpoint InvisiFence-Selective with a bounded coalescing SB.

    Cached per capacity so repeated sweeps re-register the identical
    factory object (overlaying it again is then a no-op).
    """
    def factory(settings: "ExperimentSettings") -> SystemConfig:
        return paper_config(
            ConsistencyModel.SC,
            SpeculationConfig(mode=SpeculationMode.SELECTIVE),
            num_cores=settings.num_cores,
        ).replace(store_buffer=StoreBufferConfig(StoreBufferKind.COALESCING_BLOCK,
                                                 entries, 64))
    return factory


def _cov_name(timeout: int) -> str:
    return f"invisi_cont_cov_t{timeout}"


@lru_cache(maxsize=None)
def _cov_factory(timeout: int) -> ConfigFactory:
    """InvisiFence-Continuous with a fixed CoV window (0 = abort policy)."""
    def factory(settings: "ExperimentSettings") -> SystemConfig:
        if timeout == 0:
            spec = SpeculationConfig(mode=SpeculationMode.CONTINUOUS,
                                     num_checkpoints=2,
                                     violation_policy=ViolationPolicy.ABORT)
        else:
            spec = SpeculationConfig(mode=SpeculationMode.CONTINUOUS,
                                     num_checkpoints=2,
                                     violation_policy=ViolationPolicy.COMMIT_ON_VIOLATE,
                                     cov_timeout=timeout)
        return paper_config(ConsistencyModel.SC, spec,
                            num_cores=settings.num_cores)
    return factory


def _first_seed(settings: "ExperimentSettings") -> Tuple[int, ...]:
    """Ablations sweep a design parameter, not seeds: first seed only."""
    return (settings.seeds[0],)


@dataclass
class StoreBufferAblationResult:
    """Runtime of InvisiFence-Selective versus coalescing-buffer capacity."""

    settings: ExperimentSettings
    workload: str
    #: {entries: cycles per core}
    cycles: Dict[int, float] = field(default_factory=dict)
    #: {entries: SB-full cycles summed over cores}
    sb_full: Dict[int, float] = field(default_factory=dict)

    def relative_runtime(self) -> Dict[int, float]:
        """Runtime normalised to the largest (most generous) capacity."""
        if not self.cycles:
            return {}
        best = self.cycles[max(self.cycles)]
        return {entries: value / best for entries, value in self.cycles.items()}

    def smallest_sufficient_capacity(self, tolerance: float = 0.02) -> int:
        """Smallest capacity within ``tolerance`` of the unbounded runtime."""
        relative = self.relative_runtime()
        for entries in sorted(relative):
            if relative[entries] <= 1.0 + tolerance:
                return entries
        return max(relative)

    def format(self) -> str:
        relative = self.relative_runtime()
        rows = [[entries, round(self.cycles[entries]), round(relative[entries], 3),
                 round(self.sb_full[entries])]
                for entries in sorted(self.cycles)]
        return format_table(
            ["SB entries", "cycles/core", "runtime vs largest", "SB-full cycles"],
            rows,
            title=f"Ablation: coalescing store-buffer capacity "
                  f"(InvisiFence-Selective SC, {self.workload})")


def store_buffer_study(workload: str = "apache",
                       sizes: Sequence[int] = DEFAULT_SB_SIZES) -> StudySpec:
    """Declare the store-buffer capacity sweep as a study."""
    sizes = tuple(sizes)

    def _build(ctx: StudyContext) -> StoreBufferAblationResult:
        result = StoreBufferAblationResult(settings=ctx.settings,
                                           workload=workload)
        seed = ctx.settings.seeds[0]
        for entries in sizes:
            run = ctx.run(_sb_name(entries), workload, seed)
            result.cycles[entries] = run.cycles_per_core()
            result.sb_full[entries] = float(run.aggregate().sb_full)
        return result

    def _tabulate(result: StoreBufferAblationResult) -> List[StudyTable]:
        relative = result.relative_runtime()
        rows = [[result.workload, entries, result.cycles[entries],
                 relative[entries], result.sb_full[entries]]
                for entries in sorted(result.cycles)]
        return [StudyTable("store_buffer_capacity",
                           ("workload", "sb_entries", "cycles_per_core",
                            "runtime_vs_largest", "sb_full_cycles"), rows)]

    return StudySpec(
        name="ablation-sb",
        title="Sensitivity of InvisiFence-Selective to store-buffer capacity",
        configs=tuple(_sb_name(entries) for entries in sizes),
        workloads=(workload,),
        seeds=_first_seed,
        extra_configs={_sb_name(entries): _sb_factory(entries)
                       for entries in sizes},
        build=_build,
        tabulate=_tabulate,
    )


@dataclass
class CovTimeoutAblationResult:
    """Behaviour of continuous speculation versus the CoV timeout."""

    settings: ExperimentSettings
    workload: str
    #: {timeout: cycles per core}; timeout 0 means the abort-immediately policy.
    cycles: Dict[int, float] = field(default_factory=dict)
    #: {timeout: (aborts, cov_commits, violation cycles)}
    outcomes: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)

    def relative_runtime(self) -> Dict[int, float]:
        if not self.cycles:
            return {}
        baseline = self.cycles[min(self.cycles)]
        return {t: v / baseline for t, v in self.cycles.items()}

    def format(self) -> str:
        relative = self.relative_runtime()
        rows = []
        for timeout in sorted(self.cycles):
            aborts, cov_commits, violation = self.outcomes[timeout]
            label = "abort-immediately" if timeout == 0 else str(timeout)
            rows.append([label, round(self.cycles[timeout]),
                         round(relative[timeout], 3), aborts, cov_commits,
                         violation])
        return format_table(
            ["CoV timeout", "cycles/core", "runtime vs abort", "aborts",
             "CoV commits", "violation cycles"],
            rows,
            title=f"Ablation: commit-on-violate timeout "
                  f"(InvisiFence-Continuous, {self.workload})")


def cov_timeout_study(workload: str = "apache",
                      timeouts: Sequence[int] = DEFAULT_COV_TIMEOUTS) -> StudySpec:
    """Declare the commit-on-violate timeout sweep as a study."""
    timeouts = tuple(timeouts)

    def _build(ctx: StudyContext) -> CovTimeoutAblationResult:
        result = CovTimeoutAblationResult(settings=ctx.settings,
                                          workload=workload)
        seed = ctx.settings.seeds[0]
        for timeout in timeouts:
            run = ctx.run(_cov_name(timeout), workload, seed)
            stats = run.aggregate()
            result.cycles[timeout] = run.cycles_per_core()
            result.outcomes[timeout] = (stats.aborts, stats.cov_commits,
                                        stats.violation)
        return result

    def _tabulate(result: CovTimeoutAblationResult) -> List[StudyTable]:
        relative = result.relative_runtime()
        rows = []
        for timeout in sorted(result.cycles):
            aborts, cov_commits, violation = result.outcomes[timeout]
            rows.append([result.workload, timeout, result.cycles[timeout],
                         relative[timeout], aborts, cov_commits, violation])
        return [StudyTable("cov_timeout",
                           ("workload", "cov_timeout", "cycles_per_core",
                            "runtime_vs_abort", "aborts", "cov_commits",
                            "violation_cycles"), rows)]

    return StudySpec(
        name="ablation-cov",
        title="Sensitivity of continuous speculation to the CoV timeout",
        configs=tuple(_cov_name(timeout) for timeout in timeouts),
        workloads=(workload,),
        seeds=_first_seed,
        extra_configs={_cov_name(timeout): _cov_factory(timeout)
                       for timeout in timeouts},
        build=_build,
        tabulate=_tabulate,
    )


ABLATION_SB_STUDY = register_study(store_buffer_study())
ABLATION_COV_STUDY = register_study(cov_timeout_study())
