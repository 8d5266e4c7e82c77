"""Figure 9: runtime breakdown of conventional and InvisiFence configurations.

The same six configurations as Figure 8, but presented as stacked runtime
components (Busy / Other / SB full / SB drain / Violation) normalised to
conventional SC's runtime.  Expected shape: the InvisiFence variants remove
nearly all SB-full and SB-drain cycles and add only a small Violation
component, with Invisi_rmo showing the least time in total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..cpu.stats import BREAKDOWN_COMPONENTS
from ..stats.report import format_breakdown_table
from ..studies.artifacts import StudyTable
from ..studies.registry import register_study
from ..studies.runner import StudyContext
from ..studies.spec import StudySpec
from .common import ExperimentSettings
from .figure8 import FIGURE8_CONFIGS


@dataclass
class Figure9Result:
    """Normalised runtime breakdowns per workload and configuration."""

    settings: ExperimentSettings
    #: {workload: {config: {component: % of SC runtime}}}
    breakdowns: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)

    def total(self, workload: str, config: str) -> float:
        return sum(self.breakdowns[workload][config].values())

    def format(self) -> str:
        return format_breakdown_table(
            self.breakdowns, BREAKDOWN_COMPONENTS,
            title="Figure 9: runtime breakdown, % of conventional SC runtime "
                  "(lower total is better)")


def _build(ctx: StudyContext) -> Figure9Result:
    result = Figure9Result(settings=ctx.settings)
    for workload in ctx.settings.workloads:
        result.breakdowns[workload] = {}
        for config in FIGURE8_CONFIGS:
            result.breakdowns[workload][config] = ctx.normalized_breakdown(
                config, workload, baseline="sc")
    return result


def breakdown_tables(breakdowns: Dict[str, Dict[str, Dict[str, float]]],
                     table_name: str = "runtime_breakdown",
                     key_column: str = "workload") -> List[StudyTable]:
    """Flatten {key: {config: {component: %}}} into one artifact table.

    Shared by every breakdown-shaped study (figures 9/11/12, scenarios,
    scaling's stall attribution -- the latter keys rows by geometry).
    """
    rows = []
    for key, configs in breakdowns.items():
        for config, values in configs.items():
            rows.append([key, config]
                        + [float(values.get(c, 0.0)) for c in BREAKDOWN_COMPONENTS]
                        + [float(sum(values.get(c, 0.0)
                                     for c in BREAKDOWN_COMPONENTS))])
    return [StudyTable(table_name,
                       (key_column, "config") + tuple(BREAKDOWN_COMPONENTS)
                       + ("total_pct",), rows)]


FIGURE9_STUDY = register_study(StudySpec(
    name="figure9",
    title="Runtime breakdown of Figure 8's configs, % of SC runtime",
    configs=FIGURE8_CONFIGS,
    build=_build,
    tabulate=lambda result: breakdown_tables(result.breakdowns),
))
