"""The public API facade: the blessed programmatic entry points.

Service and script consumers should import from here (or from the
package root, which re-exports this module) rather than reaching into
``repro.studies.runner`` internals, whose layout may change between
releases.  Four entry points cover the common shapes:

:func:`simulate`
    one cell on the engine -- a workload (name, spec, or prebuilt trace)
    under a machine configuration (name or
    :class:`~repro.config.SystemConfig`), with an engine recorder if
    wanted; it never touches the result cache;
:func:`run_study`
    one registered (or ad-hoc) study end to end, returning its result
    object;
:func:`execute_plan`
    many studies compiled into one deduplicated campaign plan, whose
    cells run through one study runner and its result cache -- the
    bulk entry point, the same path the CLI's campaign commands take;
:func:`open_cache`
    a result-cache backend from a ``dir://`` / ``sqlite://`` URL, a bare
    path, or ``None`` for the default local directory.

Example::

    from repro import execute_plan, simulate

    # One cell on the engine:
    result = simulate("invisi_sc", "apache", cores=8, ops=4000)

    # Ten studies, one deduplicated plan, sqlite-backed; leaving the
    # ``with`` block closes the backend the URL opened:
    with execute_plan(["figure8", "figure9"], jobs=4,
                      cache="sqlite://results/cache.sqlite") as execution:
        print(execution.result("figure8").format())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple, Union

from .campaign.backends import CacheBackend, DirectoryBackend, backend_from_url
from .campaign.cache import DEFAULT_CACHE_DIR
from .campaign.cells import CampaignReport
from .campaign.registry import DEFAULT_REGISTRY
from .config import SystemConfig
from .engine.results import RunResult
from .engine.simulator import simulate as _engine_simulate
from .errors import StudyError
from .obs.recorder import Recorder
from .trace.trace import MultiThreadedTrace
from .workloads.registry import build_trace

__all__ = [
    "PlanExecution",
    "compile_study_plan",
    "execute_plan",
    "open_cache",
    "run_study",
    "simulate",
]

#: Anything :func:`open_cache` accepts.
CacheLike = Union[None, str, CacheBackend]


def open_cache(cache: CacheLike = None) -> CacheBackend:
    """Open (or pass through) a result-cache backend.

    * ``None`` -- the default local directory (``results/cache/``);
    * a string or path -- a cache URL (``dir://path``, ``sqlite://file``)
      or a bare directory path;
    * a :class:`~repro.campaign.backends.CacheBackend` -- returned
      unchanged.
    """
    if cache is None:
        return DirectoryBackend(DEFAULT_CACHE_DIR)
    if isinstance(cache, CacheBackend):
        return cache
    return backend_from_url(cache)


def _open_optional(cache: CacheLike) -> Optional[CacheBackend]:
    """Like :func:`open_cache`, but ``None`` stays ``None`` (no cache)."""
    return None if cache is None else open_cache(cache)


def simulate(config: Union[str, SystemConfig],
             workload: Union[str, object, MultiThreadedTrace],
             max_events: Optional[int] = None,
             warmup_fraction: float = 0.0, engine: str = "fast",
             recorder: Optional[Recorder] = None, *,
             cores: int = 8, ops: int = 4000, seed: int = 1) -> RunResult:
    """Simulate one (configuration, workload) cell on the engine.

    ``config`` is a registered short-name (``"sc"``, ``"invisi_sc"``,
    ...) or an explicit :class:`SystemConfig`.  ``workload`` is a
    workload preset or scenario name, a spec object, or a prebuilt
    :class:`MultiThreadedTrace`; names and specs are expanded to a trace
    at ``cores`` threads and ``ops`` operations per thread with generator
    ``seed``.  With a trace, the call is exactly the engine-level
    ``simulate(config, trace, ...)`` -- existing call sites are
    unaffected -- and ``cores``/``ops``/``seed`` do not apply (traces
    carry their own shape).

    Every call simulates.  To serve named cells from the result cache,
    run them as a study (:func:`run_study`, :func:`execute_plan`), as
    ``repro simulate`` does.
    """
    if isinstance(workload, MultiThreadedTrace):
        if isinstance(config, str):
            from .experiments.common import ExperimentSettings

            config = DEFAULT_REGISTRY.make(
                config, ExperimentSettings(
                    num_cores=workload.num_threads,
                    ops_per_thread=max(1, workload.total_ops()
                                       // workload.num_threads)))
        return _engine_simulate(config, workload, max_events=max_events,
                                warmup_fraction=warmup_fraction,
                                engine=engine, recorder=recorder)

    from .experiments.common import ExperimentSettings

    settings = ExperimentSettings(num_cores=cores, ops_per_thread=ops,
                                  seeds=(seed,),
                                  warmup_fraction=warmup_fraction)
    if isinstance(config, str):
        config = DEFAULT_REGISTRY.make(config, settings)
    trace = build_trace(workload, num_threads=config.num_cores,
                        ops_per_thread=ops, seed=seed)
    return _engine_simulate(config, trace, max_events=max_events,
                            warmup_fraction=warmup_fraction,
                            engine=engine, recorder=recorder)


def run_study(study, settings=None, *, jobs: int = 1,
              cache: CacheLike = None, out_dir=None,
              recorder: Optional[Recorder] = None, study_runner=None):
    """Execute one study end to end; returns its result object.

    A thin wrapper over :func:`repro.studies.runner.run_study` that also
    accepts cache URLs, and closes the backend a URL opened before it
    returns; see that function for the sharing semantics of
    ``study_runner``.
    """
    from .studies.runner import run_study as _run_study

    backend = _open_optional(cache)
    try:
        return _run_study(study, settings, study_runner=study_runner,
                          jobs=jobs, cache=backend, out_dir=out_dir,
                          recorder=recorder)
    finally:
        if backend is not cache:
            backend.close()


@dataclass
class PlanExecution:
    """An executed study plan: the report plus lazily built results.

    A backend that :func:`execute_plan` opened from a cache URL belongs to
    the execution: :meth:`close`, or leaving a ``with`` block, closes it.
    A backend the caller passed in stays open.  Every cell of the plan is
    memoized, so results stay readable after closing.
    """

    plan: Any
    runner: Any
    #: what the campaign actually did for the whole plan.
    report: CampaignReport
    _results: Dict[str, Any] = field(default_factory=dict)
    #: the backend :func:`execute_plan` opened, or ``None``.
    _opened: Optional[CacheBackend] = None

    def close(self) -> None:
        """Close the backend :func:`execute_plan` opened, if any."""
        if self._opened is not None:
            self._opened.close()

    def __enter__(self) -> "PlanExecution":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def cache(self) -> Optional[CacheBackend]:
        return self.runner.cache

    def names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.plan.specs)

    def result(self, name: str):
        """The named study's result object (built once, memoized)."""
        if name not in self._results:
            spec = next((s for s in self.plan.specs if s.name == name), None)
            if spec is None:
                raise StudyError(
                    f"study {name!r} is not in this plan; its studies: "
                    f"{', '.join(self.names())}")
            self._results[name] = run_study(spec, self.plan.settings,
                                            study_runner=self.runner)
        return self._results[name]

    def results(self) -> Dict[str, Any]:
        """Every study's result object, in plan order."""
        return {name: self.result(name) for name in self.names()}

    def describe(self) -> str:
        return f"{self.plan.describe()}; {self.report.describe(self.cache)}"


def execute_plan(studies: Union[str, Iterable], settings=None, *,
                 jobs: int = 1, cache: CacheLike = None,
                 recorder: Optional[Recorder] = None) -> PlanExecution:
    """Compile ``studies`` into one deduplicated plan and execute it.

    ``studies`` is a study name, an iterable of names and/or
    :class:`~repro.studies.spec.StudySpec` objects, or ``"*"`` for every
    registered study.  Shared cells (e.g. a common baseline) are
    simulated exactly once; missing cells fan out over ``jobs`` worker
    processes and persist in ``cache`` (anything :func:`open_cache`
    accepts -- pass a shared ``sqlite://`` URL to cooperate with
    ``repro worker`` processes draining the same plan).  A backend opened
    from a URL is closed by the returned execution (use it in a ``with``
    block), or here if the plan fails.
    """
    plan = compile_study_plan(studies, settings)
    backend = _open_optional(cache)
    opened = None if backend is cache else backend
    try:
        runner = plan.runner(jobs=jobs, cache=backend, recorder=recorder)
        report = plan.execute(runner)
    except BaseException:
        if opened is not None:
            opened.close()
        raise
    return PlanExecution(plan=plan, runner=runner, report=report,
                         _opened=opened)


def compile_study_plan(studies: Union[str, Iterable], settings=None):
    """Compile (without executing) the deduplicated plan for ``studies``.

    The shared front half of :func:`execute_plan`; ``repro worker`` uses
    it so every worker process derives the identical plan -- and thus the
    identical content-addressed keys -- from the study names alone.
    """
    import repro.experiments  # noqa: F401  (imports register the studies)

    from .studies.plan import compile_plan
    from .studies.registry import DEFAULT_STUDY_REGISTRY
    from .studies.spec import StudySpec

    if isinstance(studies, str):
        studies = (DEFAULT_STUDY_REGISTRY.specs() if studies == "*"
                   else (studies,))
    specs = tuple(spec if isinstance(spec, StudySpec)
                  else DEFAULT_STUDY_REGISTRY.get(spec) for spec in studies)
    if settings is None:
        from .experiments.common import ExperimentSettings

        settings = ExperimentSettings()
    return compile_plan(specs, settings)
