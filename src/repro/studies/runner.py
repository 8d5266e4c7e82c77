"""Study execution: multi-geometry campaign front-end and build context.

A :class:`StudyRunner` owns one
:class:`~repro.experiments.common.ExperimentRunner` per swept machine
size, all sharing the same worker-pool width, result cache, and
configuration registry (an overlay when studies bring private config
variants).  :func:`run_study` is the single entry point: expand the grid,
run every cell through the campaign executor, hand a
:class:`StudyContext` to the spec's ``build`` hook, and optionally write
JSON/CSV artifacts.

Imports from :mod:`repro.experiments` are deferred to call time: the
experiments layer imports this package (its drivers are facades over
registered specs), so a module-scope import here would be circular.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING, Union

from ..campaign.backends import CacheBackend
from ..campaign.executor import CampaignReport
from ..campaign.registry import ConfigFactory, ConfigRegistry, DEFAULT_REGISTRY
from ..engine.results import RunResult
from ..errors import StudyError
from .artifacts import write_artifacts
from .metrics import METRICS, normalized_breakdown, speedup
from .spec import StudyCell, StudySpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from pathlib import Path

    from ..experiments.common import ExperimentRunner, ExperimentSettings


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
    """Shared campaign front-end across every machine size a plan sweeps."""

    def __init__(self, settings: "ExperimentSettings", jobs: int = 1,
                 cache: Optional[CacheBackend] = None,
                 registry: Optional[ConfigRegistry] = None,
                 base_runner: Optional["ExperimentRunner"] = None,
                 engine: str = "fast", recorder=None) -> None:
        self.settings = settings
        self.jobs = jobs
        self.cache = cache
        self.engine = engine
        self.recorder = recorder
        self._runners: Dict[int, "ExperimentRunner"] = {}
        if base_runner is not None:
            # Adopt the caller's runner (and its memoized results) for the
            # settings' own machine size -- the facades pass the shared
            # runner the old drivers did, so simulations keep being reused
            # across figures.
            self._runners[settings.num_cores] = base_runner
            self.cache = base_runner.executor.cache if cache is None else cache
            registry = base_runner.executor.registry if registry is None \
                else registry
        self.registry = registry if registry is not None else DEFAULT_REGISTRY

    def require_configs(self, extras: Mapping[str, ConfigFactory]) -> None:
        """Make a study's private configuration variants resolvable."""
        if not extras:
            return
        self.registry = overlay_registry(self.registry, extras)
        for runner in self._runners.values():
            runner.executor.registry = self.registry

    def runner_for(self, num_cores: Optional[int] = None) -> "ExperimentRunner":
        """The (lazily created) runner for one machine size."""
        from ..experiments.common import ExperimentRunner

        if num_cores is None:
            num_cores = self.settings.num_cores
        if num_cores not in self._runners:
            scaled = self.settings if num_cores == self.settings.num_cores \
                else dataclasses.replace(self.settings, num_cores=num_cores)
            self._runners[num_cores] = ExperimentRunner(
                scaled, jobs=self.jobs, cache=self.cache,
                registry=self.registry, engine=self.engine,
                recorder=self.recorder)
        return self._runners[num_cores]

    def run_cells(self, cells: Sequence[StudyCell]) -> CampaignReport:
        """Run every cell, grouped per machine size (one campaign each).

        This is the prefetch: each group fans its missing cells out over
        the executor's worker pool; the build hooks afterwards only read
        memoized results.  Returns the summed campaign tallies.
        """
        groups: Dict[int, List[StudyCell]] = {}
        for cell in cells:
            groups.setdefault(cell.num_cores, []).append(cell)
        total = CampaignReport()
        for num_cores, group in groups.items():
            runner = self.runner_for(num_cores)
            runner.run_jobs([cell.job() for cell in group])
            total.merge(runner.last_report)
        return total


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

    def runner(self, cores: Optional[int] = None) -> "ExperimentRunner":
        return self.study_runner.runner_for(cores)

    def run(self, config: str, workload: str, seed: int,
            cores: Optional[int] = None) -> RunResult:
        return self.runner(cores).run(config, workload, seed)

    def runs(self, config: str, workload: str,
             cores: Optional[int] = None) -> List[RunResult]:
        """One result per seed (the runner's settings' seeds)."""
        return self.runner(cores).run_all_seeds(config, workload)

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
              runner: Optional["ExperimentRunner"] = None,
              study_runner: Optional[StudyRunner] = None,
              jobs: int = 1,
              cache: Optional[CacheBackend] = None,
              out_dir: Optional[Union[str, "Path"]] = None,
              engine: str = "fast", recorder=None):
    """Execute one study end to end; returns its result object.

    ``study`` is a :class:`StudySpec` or a name registered in
    :data:`~repro.studies.registry.DEFAULT_STUDY_REGISTRY`.  Pass
    ``runner`` (an :class:`ExperimentRunner`) to share memoized results
    with other drivers at the settings' machine size, or ``study_runner``
    to reuse a whole multi-geometry plan execution (e.g. after
    :meth:`StudyPlan.execute`).  With ``out_dir`` set, the study's JSON +
    CSV artifacts are written there.
    """
    from ..experiments.common import ExperimentSettings
    from .registry import DEFAULT_STUDY_REGISTRY

    spec = study if isinstance(study, StudySpec) \
        else DEFAULT_STUDY_REGISTRY.get(study)
    if settings is None:
        settings = ExperimentSettings()
    if study_runner is None:
        study_runner = StudyRunner(settings, jobs=jobs, cache=cache,
                                   base_runner=runner, engine=engine,
                                   recorder=recorder)
    study_runner.require_configs(spec.extra_configs)
    report = study_runner.run_cells(spec.cells(settings))
    result = spec.build(StudyContext(spec, settings, study_runner, report))
    if out_dir is not None:
        write_artifacts(spec, settings, spec.tabulate(result), out_dir)
    return result
