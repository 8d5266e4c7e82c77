"""Named metric extractors and seed-aggregators over :class:`RunResult`.

This is the single metric pipeline every study builds on, and the one
definition of each aggregation: studies reach it through
:class:`~repro.studies.runner.StudyContext` (``mean_metric``,
``speedup``, ``normalized_breakdown``, ...) or call it on
``ctx.runs(...)`` directly.  The implementations were lifted verbatim
from the pre-framework drivers, so the studies reproduce those drivers'
tables byte-for-byte -- the golden tests in
``tests/test_golden_tables.py`` pin that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence

from ..engine.results import RunResult
from ..stats.confidence import ConfidenceInterval, mean_confidence_interval

# ---------------------------------------------------------------------------
# Seed aggregators: Sequence[RunResult] (one per seed) -> scalar or mapping.


def mean_cycles(runs: Sequence[RunResult]) -> float:
    """Mean cycles-per-core over seed repetitions."""
    return sum(r.cycles_per_core() for r in runs) / len(runs)


def mean_speculation_fraction(runs: Sequence[RunResult]) -> float:
    """Mean fraction of cycles spent speculating over seed repetitions."""
    return sum(r.speculation_fraction() for r in runs) / len(runs)


def mean_throughput(runs: Sequence[RunResult]) -> float:
    """Mean aggregate instructions per kilocycle over seed repetitions."""
    values = []
    for run in runs:
        if run.runtime > 0:
            values.append(1000.0 * run.aggregate().instructions / run.runtime)
    return sum(values) / len(values) if values else 0.0


def mean_breakdown(runs: Sequence[RunResult]) -> Dict[str, float]:
    """Mean per-component cycle breakdown over seed repetitions."""
    combined: Dict[str, float] = {}
    for run in runs:
        for component, value in run.breakdown().items():
            combined[component] = combined.get(component, 0.0) + value / len(runs)
    return combined


def mean_breakdown_pct(runs: Sequence[RunResult],
                       components: Sequence[str]) -> Dict[str, float]:
    """Mean normalized stall breakdown (percent of accounted cycles)."""
    combined = {name: 0.0 for name in components}
    for run in runs:
        for name, value in run.breakdown(normalize=True).items():
            combined[name] += 100.0 * value / len(runs)
    return combined


def speedup(runs: Sequence[RunResult],
            baseline_runs: Sequence[RunResult]) -> float:
    """Mean-cycles speedup of ``runs`` over ``baseline_runs``."""
    base = mean_cycles(baseline_runs)
    mine = mean_cycles(runs)
    return base / mine if mine else 0.0


def speedup_interval(runs: Sequence[RunResult],
                     baseline_by_seed: Mapping[int, float]) -> ConfidenceInterval:
    """Per-seed speedup over a baseline, with a Student-t mean CI.

    ``baseline_by_seed`` maps each seed to the baseline's cycles-per-core
    for that seed, so the speedup is paired per seed (the paper's SimFlex
    confidence methodology analogue).
    """
    per_seed = [baseline_by_seed[run.seed] / run.cycles_per_core()
                for run in runs if run.cycles_per_core() > 0]
    return mean_confidence_interval(per_seed)


def normalized_breakdown(runs: Sequence[RunResult],
                         baseline_runs: Sequence[RunResult]) -> Dict[str, float]:
    """Mean breakdown of ``runs`` as a percentage of the baseline's runtime."""
    base_total = sum(mean_breakdown(baseline_runs).values())
    values = mean_breakdown(runs)
    if base_total <= 0:
        return {k: 0.0 for k in values}
    return {k: 100.0 * v / base_total for k, v in values.items()}


# ---------------------------------------------------------------------------
# Named scalar metrics, addressable from study declarations and the CLI.


@dataclass(frozen=True)
class Metric:
    """A named scalar metric: per-run extraction plus seed aggregation."""

    name: str
    description: str
    #: aggregate a seed-repetition list into one scalar.
    aggregate: Callable[[Sequence[RunResult]], float]

    def __call__(self, runs: Sequence[RunResult]) -> float:
        return self.aggregate(runs)


#: The metric catalogue; studies refer to these by name (see
#: ``StudyContext.mean_metric``).
METRICS: Dict[str, Metric] = {
    metric.name: metric for metric in (
        Metric("cycles_per_core",
               "mean cycles per core (lower is faster)", mean_cycles),
        Metric("throughput_ikc",
               "aggregate instructions per kilocycle", mean_throughput),
        Metric("speculation_fraction",
               "fraction of cycles spent in speculation",
               mean_speculation_fraction),
    )
}
