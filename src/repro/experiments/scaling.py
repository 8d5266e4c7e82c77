"""The machine-scaling study: throughput and stalls across core counts.

The paper evaluates a fixed 4x4-torus 16-core machine, but its central
claim -- that speculation keeps ordering enforcement performance-neutral
where store-buffer designs degrade -- is a *scaling* claim.  This study
sweeps machine geometry as a first-class grid axis: every (core count,
machine configuration, scenario) cell runs through the study runner
(so cells are cached, deduplicated, and parallelisable like any other
campaign), and the result is summarised as

* **normalized-throughput scaling curves** -- aggregate instructions per
  kilocycle at each core count, normalized to the same configuration's
  throughput at the smallest swept count (perfect per-core scaling holds
  the curve at 1.0; contention and ordering stalls drag it down), and
* a **per-config stall-attribution table** -- the Figure-9 stall taxonomy
  as a percentage of accounted cycles at every swept geometry, which shows
  *why* a configuration stops scaling (``sb_drain`` for conventional SC,
  ``violation`` for the speculative variants).

Core counts map to tori via :func:`repro.config.torus_geometry`
(4 -> 2x2 ... 64 -> 8x8), in front of one shared L2.  The interconnect
is the paper's contention-free one, as in every other figure, so the
curves and the ranking of configurations rest on a network that never
queues a message (DESIGN.md section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..campaign.cells import CampaignReport
from ..cpu.stats import BREAKDOWN_COMPONENTS
from ..stats.report import format_breakdown_table, format_table
from ..studies.artifacts import StudyTable
from ..studies.metrics import mean_breakdown_pct
from ..studies.registry import register_study
from ..studies.runner import StudyContext
from ..studies.spec import StudySpec
from .common import ExperimentSettings
from .figure9 import breakdown_tables

#: Core counts swept by the full study (2x2 ... 8x8 tori).
SCALING_CORE_COUNTS = (4, 8, 16, 32, 64)

#: One configuration per controller kind: conventional, InvisiFence-
#: Selective, and InvisiFence-Continuous.
SCALING_CONFIGS = ("sc", "invisi_sc", "invisi_cont")

#: Scenarios exercised at every geometry: contended sharing (block
#: ping-pong) and mostly-private work with sporadic remote atomics.
SCALING_SCENARIOS = ("false-sharing-storm", "task-pool")


@dataclass
class ScalingResult:
    """Throughput curves and stall attribution for the scaling sweep."""

    settings: ExperimentSettings
    core_counts: Tuple[int, ...] = SCALING_CORE_COUNTS
    configs: Tuple[str, ...] = SCALING_CONFIGS
    scenarios: Tuple[str, ...] = SCALING_SCENARIOS
    #: {scenario: {config: {cores: instructions per kilocycle}}}
    throughput: Dict[str, Dict[str, Dict[int, float]]] = field(default_factory=dict)
    #: {"scenario @ NxM (C cores)": {config: {component: % of cycles}}}
    breakdowns: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    #: what the underlying campaigns did, summed over all core counts.
    report: CampaignReport = field(default_factory=CampaignReport)

    def normalized(self, scenario: str, config: str) -> Dict[int, float]:
        """Throughput at each core count relative to the smallest count."""
        curve = self.throughput[scenario][config]
        base = curve[min(curve)]
        if base <= 0:
            return {cores: 0.0 for cores in curve}
        return {cores: value / base for cores, value in curve.items()}

    def format(self) -> str:
        sections: List[str] = []
        for scenario in self.scenarios:
            headers = ["cores"] + [f"{config} (norm)" for config in self.configs]
            rows: List[List[str]] = []
            for cores in self.core_counts:
                row = [str(cores)]
                for config in self.configs:
                    absolute = self.throughput[scenario][config][cores]
                    relative = self.normalized(scenario, config)[cores]
                    row.append(f"{relative:.2f} ({absolute:.1f} i/kc)")
                rows.append(row)
            sections.append(format_table(
                headers, rows,
                title=f"Scaling: {scenario} -- throughput normalized to "
                      f"{min(self.core_counts)} cores (insns/kilocycle)"))
        sections.append(format_breakdown_table(
            self.breakdowns, BREAKDOWN_COMPONENTS,
            title="Scaling: stall attribution, % of accounted cycles per "
                  "geometry"))
        return "\n\n".join(sections)


def scaling_study(core_counts: Sequence[int] = SCALING_CORE_COUNTS,
                  configs: Sequence[str] = SCALING_CONFIGS,
                  scenarios: Sequence[str] = SCALING_SCENARIOS) -> StudySpec:
    """Declare the machine-scaling sweep as a study."""
    core_counts = tuple(sorted(core_counts))
    configs = tuple(configs)
    scenarios = tuple(scenarios)

    def _build(ctx: StudyContext) -> ScalingResult:
        result = ScalingResult(settings=ctx.settings, core_counts=core_counts,
                               configs=configs, scenarios=scenarios)
        for scenario in scenarios:
            result.throughput[scenario] = {config: {} for config in configs}
        for cores in core_counts:
            geometry = None
            for config in configs:
                for scenario in scenarios:
                    cell_runs = ctx.runs(config, scenario, cores=cores)
                    if geometry is None:
                        net = cell_runs[0].config.interconnect
                        geometry = f"{net.mesh_width}x{net.mesh_height}"
                    result.throughput[scenario][config][cores] = \
                        ctx.mean_metric("throughput_ikc", config, scenario,
                                        cores=cores)
                    label = f"{scenario} @ {geometry} ({cores}c)"
                    result.breakdowns.setdefault(label, {})[config] = \
                        mean_breakdown_pct(cell_runs, BREAKDOWN_COMPONENTS)
        result.report = ctx.report
        return result

    def _tabulate(result: ScalingResult) -> List[StudyTable]:
        curve_rows = []
        for scenario in result.scenarios:
            for config in result.configs:
                normalized = result.normalized(scenario, config)
                for cores in result.core_counts:
                    curve_rows.append(
                        [scenario, config, cores,
                         result.throughput[scenario][config][cores],
                         normalized[cores]])
        curves = StudyTable(
            "throughput_scaling",
            ("scenario", "config", "cores", "throughput_ikc", "normalized"),
            curve_rows)
        return [curves] + breakdown_tables(result.breakdowns,
                                           "stall_attribution",
                                           key_column="geometry")

    return StudySpec(
        name="scaling",
        title="Machine scaling: normalized throughput and stalls, 4-64 cores",
        configs=configs,
        workloads=scenarios,
        core_counts=core_counts,
        build=_build,
        tabulate=_tabulate,
    )


SCALING_STUDY = register_study(scaling_study())
