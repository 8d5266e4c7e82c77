"""Figure 8: speedups of InvisiFence over conventional implementations.

For every workload, six configurations are compared against conventional
SC: conventional SC/TSO/RMO and InvisiFence-Selective enforcing SC, TSO,
and RMO.  Expected shape (paper Section 6.2/6.3): TSO beats SC by roughly
a quarter, RMO adds a smaller increment, and every InvisiFence variant
matches or exceeds conventional RMO, with Invisi_rmo the fastest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..stats.confidence import ConfidenceInterval
from ..stats.report import format_series_table
from ..studies.artifacts import StudyTable
from ..studies.metrics import speedup_interval
from ..studies.registry import register_study
from ..studies.runner import StudyContext
from ..studies.spec import StudySpec
from .common import ExperimentSettings

FIGURE8_CONFIGS = ("sc", "tso", "rmo", "invisi_sc", "invisi_tso", "invisi_rmo")


@dataclass
class Figure8Result:
    """Speedups over conventional SC, per workload and configuration."""

    settings: ExperimentSettings
    #: {workload: {config: speedup}}
    speedups: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: {workload: {config: 95% CI}} (only meaningful with several seeds).
    intervals: Dict[str, Dict[str, ConfidenceInterval]] = field(default_factory=dict)

    def average_speedup(self, config: str) -> float:
        values = [w[config] for w in self.speedups.values()]
        return sum(values) / len(values) if values else 0.0

    def format(self) -> str:
        table = dict(self.speedups)
        table["(average)"] = {c: self.average_speedup(c) for c in FIGURE8_CONFIGS}
        return format_series_table(
            table, title="Figure 8: speedup over conventional SC (higher is better)")


def _build(ctx: StudyContext) -> Figure8Result:
    result = Figure8Result(settings=ctx.settings)
    for workload in ctx.settings.workloads:
        result.speedups[workload] = {}
        result.intervals[workload] = {}
        baseline_runs = ctx.runs("sc", workload)
        baseline_by_seed = {run.seed: run.cycles_per_core() for run in baseline_runs}
        for config in FIGURE8_CONFIGS:
            interval = speedup_interval(ctx.runs(config, workload), baseline_by_seed)
            result.speedups[workload][config] = interval.mean
            result.intervals[workload][config] = interval
    return result


def _tabulate(result: Figure8Result) -> List[StudyTable]:
    rows = []
    for workload, by_config in result.speedups.items():
        for config in FIGURE8_CONFIGS:
            interval = result.intervals[workload][config]
            rows.append([workload, config, by_config[config],
                         interval.low, interval.high, interval.samples])
    return [StudyTable("speedup_over_sc",
                       ("workload", "config", "speedup", "ci_low", "ci_high",
                        "seeds"), rows)]


FIGURE8_STUDY = register_study(StudySpec(
    name="figure8",
    title="Speedup of conventional and InvisiFence-Selective configs over SC",
    configs=FIGURE8_CONFIGS,
    build=_build,
    tabulate=_tabulate,
))
