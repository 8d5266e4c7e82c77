"""Figure 12: continuous speculation and the commit-on-violate policy.

Five configurations per workload, normalised to conventional SC's runtime:
SC, InvisiFence-Continuous (abort-immediately), conventional RMO,
InvisiFence-Continuous with commit-on-violate, and InvisiFence-Selective
enforcing RMO.  Expected shape (paper Sections 6.5/6.6): continuous
speculation beats SC on average but suffers enough violation cycles to fall
behind RMO (and occasionally behind SC); commit-on-violate removes most of
those violation cycles, bringing continuous speculation to within a few
percent of Invisi_rmo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..cpu.stats import BREAKDOWN_COMPONENTS
from ..stats.report import format_breakdown_table
from ..studies.registry import register_study
from ..studies.runner import StudyContext
from ..studies.spec import StudySpec
from .common import ExperimentSettings
from .figure9 import breakdown_tables

FIGURE12_CONFIGS = ("sc", "invisi_cont", "rmo", "invisi_cont_cov", "invisi_rmo")


@dataclass
class Figure12Result:
    """Runtime breakdowns normalised to conventional SC."""

    settings: ExperimentSettings
    #: {workload: {config: {component: % of SC runtime}}}
    breakdowns: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)

    def total(self, workload: str, config: str) -> float:
        return sum(self.breakdowns[workload][config].values())

    def average_total(self, config: str) -> float:
        totals = [self.total(w, config) for w in self.breakdowns]
        return sum(totals) / len(totals) if totals else 0.0

    def violation_cycles(self, workload: str, config: str) -> float:
        return self.breakdowns[workload][config]["violation"]

    def format(self) -> str:
        return format_breakdown_table(
            self.breakdowns, BREAKDOWN_COMPONENTS,
            title="Figure 12: runtime of SC, Invisi_cont, RMO, Invisi_cont_CoV "
                  "and Invisi_rmo, % of SC runtime")


def _build(ctx: StudyContext) -> Figure12Result:
    result = Figure12Result(settings=ctx.settings)
    for workload in ctx.settings.workloads:
        result.breakdowns[workload] = {}
        for config in FIGURE12_CONFIGS:
            result.breakdowns[workload][config] = ctx.normalized_breakdown(
                config, workload, baseline="sc")
    return result


FIGURE12_STUDY = register_study(StudySpec(
    name="figure12",
    title="Continuous speculation and commit-on-violate, % of SC runtime",
    configs=FIGURE12_CONFIGS,
    build=_build,
    tabulate=lambda result: breakdown_tables(result.breakdowns),
))
