"""Shared experiment machinery: configurations, settings, and a cached runner.

The machine configurations evaluated by the paper are referred to by short
names throughout the experiment drivers and benchmarks:

==================  =========================================================
name                meaning
==================  =========================================================
``sc``              conventional SC (word FIFO store buffer)
``tso``             conventional TSO
``rmo``             conventional RMO (coalescing store buffer)
``invisi_sc``       InvisiFence-Selective enforcing SC, one checkpoint
``invisi_tso``      InvisiFence-Selective enforcing TSO
``invisi_rmo``      InvisiFence-Selective enforcing RMO
``invisi_sc_2ckpt`` InvisiFence-Selective (SC) with two checkpoints
``aso_sc``          the ASO baseline (ASOsc)
``invisi_cont``     InvisiFence-Continuous, abort-immediately policy
``invisi_cont_cov`` InvisiFence-Continuous with commit-on-violate
==================  =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..campaign.backends import CacheBackend
from ..campaign.executor import CampaignExecutor, CampaignReport
from ..campaign.jobs import Job, dedupe_jobs, expand_jobs
from ..campaign.registry import ConfigRegistry, DEFAULT_REGISTRY
from ..config import SystemConfig
from ..engine.results import RunResult
from ..studies import metrics as _metrics
from ..trace.trace import MultiThreadedTrace
from ..workloads.presets import workload_names


class _LiveConfigNames(Sequence):
    """A live, sequence-like view of ``DEFAULT_REGISTRY.names()``.

    Configurations registered at runtime (``DEFAULT_REGISTRY.register``)
    are immediately visible here, so call sites that imported
    :data:`CONFIG_NAMES` never work from a stale import-time snapshot.
    """

    def _names(self) -> Tuple[str, ...]:
        return DEFAULT_REGISTRY.names()

    def __iter__(self) -> Iterator[str]:
        return iter(self._names())

    def __len__(self) -> int:
        return len(self._names())

    def __getitem__(self, index):
        return self._names()[index]

    def __contains__(self, name: object) -> bool:
        return name in self._names()

    def __eq__(self, other: object) -> bool:
        try:
            return self._names() == tuple(other)  # type: ignore[arg-type]
        except TypeError:
            return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self._names())


#: Live view of the default registry's short-names (kept in sync with
#: runtime registrations; equivalent to calling ``DEFAULT_REGISTRY.names()``).
CONFIG_NAMES = _LiveConfigNames()


@dataclass(frozen=True)
class ExperimentSettings:
    """Scale and scope of an experiment run."""

    num_cores: int = 16
    ops_per_thread: int = 20_000
    seeds: Tuple[int, ...] = (1,)
    workloads: Tuple[str, ...] = tuple(workload_names())
    #: commit-on-violate timeout (paper: 4000 cycles).
    cov_timeout: int = 4000
    #: leading fraction of each trace excluded from statistics (cache warmup).
    warmup_fraction: float = 0.2

    @classmethod
    def quick(cls, num_cores: int = 8, ops_per_thread: int = 4_000,
              workloads: Optional[Sequence[str]] = None,
              seeds: Sequence[int] = (1,)) -> "ExperimentSettings":
        """A scaled-down setup for tests and the benchmark harness."""
        return cls(num_cores=num_cores, ops_per_thread=ops_per_thread,
                   seeds=tuple(seeds),
                   workloads=tuple(workloads) if workloads is not None
                   else tuple(workload_names()))


def make_config(name: str, settings: ExperimentSettings) -> SystemConfig:
    """Build the :class:`SystemConfig` for a configuration short-name.

    Delegates to the campaign subsystem's declarative registry
    (:data:`repro.campaign.DEFAULT_REGISTRY`); new variants registered there
    are immediately available here and in the CLI.
    """
    return DEFAULT_REGISTRY.make(name, settings)


class ExperimentRunner:
    """Runs (configuration, workload, seed) combinations with caching.

    Several figures share configurations (e.g. the ``sc`` baseline appears
    in Figures 1, 8, 9, and 12); a shared runner avoids re-simulating them.
    Traces are also cached per (workload, seed).

    The runner is a thin façade over the campaign subsystem: cells execute
    through a :class:`~repro.campaign.executor.CampaignExecutor` (pass
    ``jobs > 1`` to simulate missing cells on a process pool) and, when a
    cache backend (:class:`~repro.campaign.backends.CacheBackend`) is
    attached, completed cells persist across processes and sessions.
    :meth:`prefetch` computes a whole cross-product up front so the figure
    drivers' serial loops then hit only memoized results.  The convenience
    aggregations delegate to the study framework's metric pipeline
    (:mod:`repro.studies.metrics`).
    """

    def __init__(self, settings: ExperimentSettings, jobs: int = 1,
                 cache: Optional[CacheBackend] = None,
                 registry: Optional[ConfigRegistry] = None,
                 engine: str = "fast", recorder=None) -> None:
        self.settings = settings
        self.executor = CampaignExecutor(settings, jobs=jobs, cache=cache,
                                         registry=registry, engine=engine,
                                         recorder=recorder)
        #: what the last :meth:`run_jobs` call actually did.
        self.last_report = CampaignReport()
        self._results: Dict[Tuple[str, str, int], RunResult] = {}

    # -- building blocks ----------------------------------------------------

    def trace(self, workload: str, seed: int) -> MultiThreadedTrace:
        return self.executor.trace_for(workload, seed)

    def run_jobs(self, jobs: Sequence[Job]) -> List[RunResult]:
        """Run campaign cells, skipping any already memoized in-process."""
        jobs = list(jobs)
        unique = dedupe_jobs(jobs)
        todo = [job for job in unique
                if (job.config_name, job.workload, job.seed) not in self._results]
        report = CampaignReport(total=len(jobs),
                                deduplicated=len(jobs) - len(unique))
        if todo:
            for job, result in zip(todo, self.executor.run(todo)):
                self._results[(job.config_name, job.workload, job.seed)] = result
            tally = self.executor.last_report
            report.simulated = tally.simulated
            report.cache_hits = tally.cache_hits
        self.last_report = report
        return [self._results[(job.config_name, job.workload, job.seed)]
                for job in jobs]

    def prefetch(self, config_names: Iterable[str],
                 workloads: Optional[Iterable[str]] = None,
                 seeds: Optional[Iterable[int]] = None) -> List[RunResult]:
        """Run the full (configs x workloads x seeds) cross-product.

        Workloads and seeds default to the runner's settings.  This is the
        parallelism entry point: one call fans every missing cell out over
        the executor's worker pool.
        """
        workloads = tuple(workloads) if workloads is not None else self.settings.workloads
        seeds = tuple(seeds) if seeds is not None else self.settings.seeds
        return self.run_jobs(expand_jobs(config_names, workloads, seeds))

    def run(self, config_name: str, workload: str, seed: int) -> RunResult:
        return self.run_jobs([Job(config_name, workload, seed)])[0]

    # -- convenience aggregations ---------------------------------------------

    def run_all_seeds(self, config_name: str, workload: str) -> List[RunResult]:
        return [self.run(config_name, workload, seed) for seed in self.settings.seeds]

    def mean_cycles(self, config_name: str, workload: str) -> float:
        return _metrics.mean_cycles(self.run_all_seeds(config_name, workload))

    def mean_breakdown(self, config_name: str, workload: str) -> Dict[str, float]:
        return _metrics.mean_breakdown(self.run_all_seeds(config_name, workload))

    def speedup(self, config_name: str, workload: str, baseline: str) -> float:
        return _metrics.speedup(self.run_all_seeds(config_name, workload),
                                self.run_all_seeds(baseline, workload))

    def normalized_breakdown(self, config_name: str, workload: str,
                             baseline: str) -> Dict[str, float]:
        """Breakdown of ``config_name`` as % of the baseline's runtime."""
        return _metrics.normalized_breakdown(
            self.run_all_seeds(config_name, workload),
            self.run_all_seeds(baseline, workload))

    def speculation_fraction(self, config_name: str, workload: str) -> float:
        return _metrics.mean_speculation_fraction(
            self.run_all_seeds(config_name, workload))
