"""Figure 10: fraction of cycles InvisiFence-Selective spends speculating.

Expected shape (paper Figure 10 / Figure 4): enforcing weaker models needs
less speculation -- Invisi_rmo speculates for under ~10 % of cycles,
Invisi_tso noticeably more, and Invisi_sc the most (up to ~50 % on the
synchronisation-heavy workloads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..stats.report import format_series_table
from ..studies.artifacts import StudyTable
from ..studies.registry import register_study
from ..studies.runner import StudyContext
from ..studies.spec import StudySpec
from .common import ExperimentSettings

FIGURE10_CONFIGS = ("invisi_sc", "invisi_tso", "invisi_rmo")


@dataclass
class Figure10Result:
    """Percent of cycles spent in speculation, per workload and variant."""

    settings: ExperimentSettings
    #: {workload: {config: % of cycles}}
    speculation_pct: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def average(self, config: str) -> float:
        values = [w[config] for w in self.speculation_pct.values()]
        return sum(values) / len(values) if values else 0.0

    def format(self) -> str:
        table = dict(self.speculation_pct)
        table["(average)"] = {c: self.average(c) for c in FIGURE10_CONFIGS}
        return format_series_table(
            table,
            title="Figure 10: percent of cycles spent in speculation")


def _build(ctx: StudyContext) -> Figure10Result:
    result = Figure10Result(settings=ctx.settings)
    for workload in ctx.settings.workloads:
        result.speculation_pct[workload] = {}
        for config in FIGURE10_CONFIGS:
            fraction = ctx.mean_metric("speculation_fraction", config, workload)
            result.speculation_pct[workload][config] = 100.0 * fraction
    return result


def _tabulate(result: Figure10Result) -> List[StudyTable]:
    rows = [[workload, config, result.speculation_pct[workload][config]]
            for workload in result.speculation_pct
            for config in FIGURE10_CONFIGS]
    return [StudyTable("speculation_pct",
                       ("workload", "config", "speculation_pct"), rows)]


FIGURE10_STUDY = register_study(StudySpec(
    name="figure10",
    title="Percent of cycles InvisiFence-Selective spends speculating",
    configs=FIGURE10_CONFIGS,
    build=_build,
    tabulate=_tabulate,
))
