"""Study execution: the one way a study's cells run.

A :class:`StudyRunner` owns one
:class:`~repro.campaign.executor.CampaignExecutor` per swept machine
size, all sharing the same worker-pool width, result cache, and
configuration registry (an overlay when studies bring private config
variants), plus one memo of results keyed by :class:`StudyCell`.
:func:`run_study` is the single entry point: expand the grid, run every
missing cell through the executors, hand a :class:`StudyContext` to the
spec's ``build`` hook, and optionally write JSON/CSV artifacts.

Imports from :mod:`repro.experiments` are deferred to call time: the
experiments layer imports this package (its modules register the
built-in specs), so a module-scope import here would be circular.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING, Union

from ..campaign.backends import CacheBackend
from ..campaign.executor import CampaignExecutor, CampaignReport
from ..campaign.registry import ConfigFactory, ConfigRegistry, DEFAULT_REGISTRY
from ..engine.results import RunResult
from ..errors import StudyError
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
    """The one way a study's cells run.

    Holds one :class:`~repro.campaign.executor.CampaignExecutor` per
    machine size, all sharing the worker-pool width, result cache, engine,
    and configuration registry, and one memo of every result this runner
    has produced, keyed by :class:`StudyCell`.
    """

    def __init__(self, settings: "ExperimentSettings", jobs: int = 1,
                 cache: Optional[CacheBackend] = None,
                 registry: Optional[ConfigRegistry] = None,
                 engine: str = "fast", recorder=None) -> None:
        self.settings = settings
        self.jobs = jobs
        self.cache = cache
        self.engine = engine
        self.recorder = recorder
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self._executors: Dict[int, CampaignExecutor] = {}
        self._results: Dict[StudyCell, RunResult] = {}

    def require_configs(self, extras: Mapping[str, ConfigFactory]) -> None:
        """Make a study's private configuration variants resolvable."""
        if not extras:
            return
        self.registry = overlay_registry(self.registry, extras)
        for executor in self._executors.values():
            executor.registry = self.registry

    def executor_for(self, num_cores: int) -> CampaignExecutor:
        """The (lazily created) executor for one machine size."""
        if num_cores not in self._executors:
            scaled = self.settings if num_cores == self.settings.num_cores \
                else dataclasses.replace(self.settings, num_cores=num_cores)
            self._executors[num_cores] = CampaignExecutor(
                scaled, jobs=self.jobs, cache=self.cache,
                registry=self.registry, engine=self.engine,
                recorder=self.recorder)
        return self._executors[num_cores]

    def run_cells(self, cells: Sequence[StudyCell]) -> CampaignReport:
        """Run every cell not yet memoized; returns the summed tallies.

        Missing cells run as one campaign per machine size, so each group
        fans out over the executor's worker pool; the build hooks
        afterwards only read memoized results.
        """
        cells = list(cells)
        unique = list(dict.fromkeys(cells))
        report = CampaignReport(total=len(cells),
                                deduplicated=len(cells) - len(unique))
        groups: Dict[int, List[StudyCell]] = {}
        for cell in unique:
            if cell not in self._results:
                groups.setdefault(cell.num_cores, []).append(cell)
        for num_cores, group in groups.items():
            executor = self.executor_for(num_cores)
            results = executor.run([cell.job() for cell in group])
            self._results.update(zip(group, results))
            report.simulated += executor.last_report.simulated
            report.cache_hits += executor.last_report.cache_hits
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
              engine: str = "fast", recorder=None):
    """Execute one study end to end; returns its result object.

    ``study`` is a :class:`StudySpec` or a name registered in
    :data:`~repro.studies.registry.DEFAULT_STUDY_REGISTRY`.  Pass
    ``study_runner`` to share its memoized results with other studies
    (e.g. after :meth:`StudyPlan.execute`); otherwise a fresh runner with
    ``jobs``/``cache``/``engine``/``recorder`` runs the study's cells.
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
                                   engine=engine, recorder=recorder)
    study_runner.require_configs(spec.extra_configs)
    report = study_runner.run_cells(spec.cells(settings))
    result = spec.build(StudyContext(spec, settings, study_runner, report))
    if out_dir is not None:
        write_artifacts(spec, settings, spec.tabulate(result), out_dir)
    return result
