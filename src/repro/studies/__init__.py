"""Declarative study framework: one grid/metric/artifact pipeline.

The paper's evaluation is a matrix -- {SC, TSO, RMO} x {conventional,
InvisiFence-Selective, InvisiFence-Continuous, ASO} x workloads x seeds
(x machine sizes for the scaling study).  Instead of one bespoke driver
per figure, each study is a :class:`~repro.studies.spec.StudySpec`:

* a **grid** of configuration short-names x workloads/scenarios x seeds
  x core counts (axes default to the experiment settings, so one spec
  serves every scale);
* **named metric extractors** over :class:`~repro.engine.results.RunResult`
  and aggregators (speedup-vs-baseline, mean-CI, normalized breakdowns) in
  :mod:`~repro.studies.metrics`;
* a ``build`` hook that turns the executed grid into the figure's result
  object, and a ``tabulate`` hook that flattens it into structured tables.

Specs compile to a deduplicated campaign plan
(:func:`~repro.studies.plan.compile_plan`) whose cells run through a
:class:`~repro.studies.runner.StudyRunner` -- the one way a named cell
runs: cache lookups, serial or pooled simulation of the misses, and
stores, against one :class:`~repro.campaign.backends.CacheBackend`.
Studies emit JSON + CSV artifacts under ``results/``
(:mod:`~repro.studies.artifacts`) alongside the original text tables.
:func:`~repro.studies.runner.run_study` is the one way to run a study.
The modules of :mod:`repro.experiments` register the paper's specs;
``repro study list|run`` and ``repro figure N`` are the CLI surface, and
``repro simulate``, ``sweep`` and ``scenario run`` run ad-hoc specs
through the same plan.  See ``EXPERIMENTS.md`` for the user-facing
guide.

Import order note: :mod:`~repro.studies.metrics` and the other submodules
here must not import :mod:`repro.experiments` at module scope (the
experiments layer imports this package); runtime lookups are deferred.
"""

from .artifacts import ARTIFACT_SCHEMA_VERSION, StudyTable, write_artifacts
from .metrics import (
    METRICS,
    Metric,
    mean_breakdown,
    mean_breakdown_pct,
    mean_cycles,
    mean_speculation_fraction,
    mean_throughput,
    normalized_breakdown,
    speedup,
    speedup_interval,
)
from .plan import StudyPlan, compile_plan
from .registry import DEFAULT_STUDY_REGISTRY, StudyRegistry, register_study
from .runner import StudyContext, StudyRunner, run_study
from .spec import StudyCell, StudySpec

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "DEFAULT_STUDY_REGISTRY",
    "METRICS",
    "Metric",
    "StudyCell",
    "StudyContext",
    "StudyPlan",
    "StudyRegistry",
    "StudyRunner",
    "StudySpec",
    "StudyTable",
    "compile_plan",
    "mean_breakdown",
    "mean_breakdown_pct",
    "mean_cycles",
    "mean_speculation_fraction",
    "mean_throughput",
    "normalized_breakdown",
    "register_study",
    "run_study",
    "speedup",
    "speedup_interval",
    "write_artifacts",
]
