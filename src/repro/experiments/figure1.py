"""Figure 1: ordering stalls in conventional SC, TSO, and RMO.

The paper's Figure 1 plots, for each workload and each conventional
consistency implementation, the cycles stalled on store-buffer drains
("SB drain", caused by atomics and fences -- or by every load under SC)
and on store-buffer capacity ("SB full"), expressed as a percentage of the
SC configuration's execution time.

Expected shape: SC stalls are the largest, TSO's are substantially smaller
but still significant, RMO's are smaller again and essentially vanish for
the scientific workloads (Barnes, Ocean) while remaining visible for the
synchronisation-heavy commercial workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..stats.report import format_table
from ..studies.artifacts import StudyTable
from ..studies.registry import register_study
from ..studies.runner import StudyContext
from ..studies.spec import StudySpec
from .common import ExperimentSettings

FIGURE1_CONFIGS = ("sc", "tso", "rmo")
_CONFIGS = FIGURE1_CONFIGS


@dataclass
class Figure1Result:
    """Per-workload, per-model ordering-stall percentages."""

    settings: ExperimentSettings
    #: {workload: {config: {"sb_drain": %, "sb_full": %}}} -- percentages of
    #: the SC configuration's runtime, as in the paper's y axis.
    stalls: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)

    def total(self, workload: str, config: str) -> float:
        values = self.stalls[workload][config]
        return values["sb_drain"] + values["sb_full"]

    def average_total(self, config: str) -> float:
        totals = [self.total(w, config) for w in self.stalls]
        return sum(totals) / len(totals) if totals else 0.0

    def format(self) -> str:
        rows = []
        for workload, configs in self.stalls.items():
            for config in _CONFIGS:
                values = configs[config]
                rows.append([workload, config, values["sb_drain"], values["sb_full"],
                             values["sb_drain"] + values["sb_full"]])
        return format_table(
            ["workload", "model", "SB drain %", "SB full %", "total %"], rows,
            title="Figure 1: ordering stalls in conventional implementations "
                  "(% of SC execution time)")


def _build(ctx: StudyContext) -> Figure1Result:
    result = Figure1Result(settings=ctx.settings)
    for workload in ctx.settings.workloads:
        result.stalls[workload] = {}
        for config in _CONFIGS:
            normalized = ctx.normalized_breakdown(config, workload, baseline="sc")
            result.stalls[workload][config] = {
                "sb_drain": normalized.get("sb_drain", 0.0),
                "sb_full": normalized.get("sb_full", 0.0),
            }
    return result


def _tabulate(result: Figure1Result) -> List[StudyTable]:
    rows = [[workload, config,
             result.stalls[workload][config]["sb_drain"],
             result.stalls[workload][config]["sb_full"],
             result.total(workload, config)]
            for workload in result.stalls for config in _CONFIGS]
    return [StudyTable("ordering_stalls",
                       ("workload", "config", "sb_drain_pct", "sb_full_pct",
                        "total_pct"), rows)]


FIGURE1_STUDY = register_study(StudySpec(
    name="figure1",
    title="Ordering stalls in conventional SC/TSO/RMO (% of SC runtime)",
    configs=FIGURE1_CONFIGS,
    build=_build,
    tabulate=_tabulate,
))
