"""Scenario figure: per-phase stall breakdowns across configurations.

The paper's per-workload figures average each workload's behaviour over
its whole sample; phase-structured scenarios make the *within-run*
variation visible instead.  For every scenario and machine configuration
this study reports the Figure-9-style stall taxonomy separately for each
phase (as a percentage of that phase's own accounted cycles), so e.g. a
barrier phase's SB-drain spike or a false-sharing phase's violation
cycles are not averaged away by the surrounding phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from ..cpu.stats import BREAKDOWN_COMPONENTS
from ..stats.phases import phase_breakdown
from ..stats.report import format_breakdown_table
from ..studies.registry import register_study
from ..studies.runner import StudyContext
from ..studies.spec import StudySpec, WorkloadAxis
from .common import ExperimentSettings
from .figure9 import breakdown_tables

#: Configurations compared per phase: the three conventional baselines'
#: worst offender, plus the speculative variants the paper centres on.
SCENARIO_CONFIGS = ("sc", "tso", "invisi_sc", "invisi_rmo")


@dataclass
class ScenarioFigureResult:
    """Per-(scenario, phase, config) stall breakdowns."""

    settings: ExperimentSettings
    configs: Tuple[str, ...] = SCENARIO_CONFIGS
    #: {"scenario/phase": {config: {component: % of phase cycles}}}
    breakdowns: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)

    def format(self) -> str:
        return format_breakdown_table(
            self.breakdowns, BREAKDOWN_COMPONENTS,
            title="Scenario phases: stall breakdown, % of each phase's "
                  "accounted cycles")


def _live_scenarios(settings: ExperimentSettings) -> Tuple[str, ...]:
    """The registered scenario catalogue (resolved at expansion time)."""
    from ..scenarios.registry import scenario_names

    return tuple(scenario_names())


def scenario_study(configs: Sequence[str] = SCENARIO_CONFIGS,
                   scenarios: WorkloadAxis = _live_scenarios) -> StudySpec:
    """Declare the per-phase scenario figure as a study.

    ``scenarios`` is the workload axis: defaults to the live scenario
    registry; ``None`` means the experiment settings' workload list
    (``repro figure scenarios`` uses that, so ``--workloads`` picks the
    scenarios).
    """
    configs = tuple(configs)

    def _build(ctx: StudyContext) -> ScenarioFigureResult:
        scenarios_resolved = ctx.spec.resolve_workloads(ctx.settings)
        result = ScenarioFigureResult(settings=ctx.settings, configs=configs)
        for scenario in scenarios_resolved:
            per_phase: Dict[str, Dict[str, Dict[str, float]]] = {}
            for config in configs:
                runs = ctx.runs(config, scenario)
                for run in runs:
                    for label, values in phase_breakdown(run).items():
                        key = f"{scenario}/{label}"
                        bucket = per_phase.setdefault(key, {}).setdefault(
                            config, {name: 0.0 for name in BREAKDOWN_COMPONENTS})
                        for name in BREAKDOWN_COMPONENTS:
                            bucket[name] += values[name] / len(runs)
            result.breakdowns.update(per_phase)
        return result

    return StudySpec(
        name="scenarios",
        title="Per-phase stall breakdowns across scenarios and configs",
        configs=configs,
        workloads=scenarios,
        build=_build,
        tabulate=lambda result: breakdown_tables(result.breakdowns,
                                                 "phase_breakdown"),
    )


SCENARIOS_STUDY = register_study(scenario_study())
