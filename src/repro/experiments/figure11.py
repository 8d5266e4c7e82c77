"""Figure 11: InvisiFence-Selective versus the ASO baseline.

Three configurations per workload, normalised to ASOsc's runtime: ASOsc,
single-checkpoint Invisi_sc, and two-checkpoint Invisi_sc.  Expected shape
(paper Section 6.4): all three are close; ASO is slightly faster than the
single-checkpoint InvisiFence (it discards less work on violations thanks
to its periodic checkpoints), and giving InvisiFence a second checkpoint
closes that small gap.
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

FIGURE11_CONFIGS = ("aso_sc", "invisi_sc", "invisi_sc_2ckpt")


@dataclass
class Figure11Result:
    """Runtime breakdowns normalised to ASOsc."""

    settings: ExperimentSettings
    #: {workload: {config: {component: % of ASOsc runtime}}}
    breakdowns: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)

    def total(self, workload: str, config: str) -> float:
        return sum(self.breakdowns[workload][config].values())

    def average_total(self, config: str) -> float:
        totals = [self.total(w, config) for w in self.breakdowns]
        return sum(totals) / len(totals) if totals else 0.0

    def format(self) -> str:
        return format_breakdown_table(
            self.breakdowns, BREAKDOWN_COMPONENTS,
            title="Figure 11: runtime of ASOsc, Invisi_sc (1 ckpt) and "
                  "Invisi_sc (2 ckpt), % of ASOsc runtime")


def _build(ctx: StudyContext) -> Figure11Result:
    result = Figure11Result(settings=ctx.settings)
    for workload in ctx.settings.workloads:
        result.breakdowns[workload] = {}
        for config in FIGURE11_CONFIGS:
            result.breakdowns[workload][config] = ctx.normalized_breakdown(
                config, workload, baseline="aso_sc")
    return result


FIGURE11_STUDY = register_study(StudySpec(
    name="figure11",
    title="InvisiFence-Selective vs the ASO baseline, % of ASOsc runtime",
    configs=FIGURE11_CONFIGS,
    build=_build,
    tabulate=lambda result: breakdown_tables(result.breakdowns),
))
