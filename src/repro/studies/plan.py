"""Compile many studies into one deduplicated campaign job plan.

Several studies share cells -- the conventional-SC baseline appears in
figures 1, 8, 9, and 12 -- so running drivers back to back re-requests
the same simulations.  :func:`compile_plan` unions every study's grid
into a single plan whose ``unique_cells`` are simulated exactly once
(one prefetch), with the duplication measured so scripts and tests can
assert the dedup actually bites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from ..campaign.backends import CacheBackend
from ..campaign.cells import CampaignReport
from ..campaign.registry import ConfigFactory, ConfigRegistry, DEFAULT_REGISTRY
from ..errors import StudyError
from ..obs.recorder import Recorder
from .runner import StudyRunner, overlay_registry
from .spec import StudyCell, StudySpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..experiments.common import ExperimentSettings


@dataclass
class StudyPlan:
    """The compiled union of several studies' grids at one scale."""

    settings: "ExperimentSettings"
    specs: Tuple[StudySpec, ...]
    #: every study's own expansion, in spec order.
    cells_by_study: Dict[str, List[StudyCell]]
    #: the deduplicated union, in first-appearance order.
    unique_cells: List[StudyCell]
    #: merged study-private configuration factories.
    extra_configs: Dict[str, ConfigFactory]

    @property
    def total_cells(self) -> int:
        """Sum of the per-study cell counts (before dedup)."""
        return sum(len(cells) for cells in self.cells_by_study.values())

    @property
    def deduplicated(self) -> int:
        return self.total_cells - len(self.unique_cells)

    def registry(self) -> ConfigRegistry:
        """The default registry (live) overlaid with every study's extras."""
        return overlay_registry(DEFAULT_REGISTRY, self.extra_configs)

    def runner(self, jobs: int = 1,
               cache: Optional[CacheBackend] = None,
               recorder: Optional[Recorder] = None) -> StudyRunner:
        """A study runner wired to this plan's merged registry."""
        return StudyRunner(self.settings, jobs=jobs, cache=cache,
                           registry=self.registry(), recorder=recorder)

    def execute(self, study_runner: StudyRunner) -> CampaignReport:
        """Run the union once -- the single prefetch for every study.

        The runner gets every study's cells in plan order and folds the
        duplicates itself, into :attr:`unique_cells` in the same order, so
        its report and ``campaign.deduplicated`` count what the plan shares.
        """
        study_runner.require_configs(self.extra_configs)
        return study_runner.run_cells(
            [cell for cells in self.cells_by_study.values() for cell in cells])

    def describe(self) -> str:
        return (f"{self.total_cells} cells across {len(self.specs)} studies "
                f"-> {len(self.unique_cells)} unique jobs")


def compile_plan(specs: Iterable[StudySpec],
                 settings: "ExperimentSettings") -> StudyPlan:
    """Expand and union every study's grid against ``settings``."""
    specs = tuple(specs)
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise StudyError(f"duplicate study names in plan: {names}")

    extras: Dict[str, ConfigFactory] = {}
    for spec in specs:
        for name, factory in spec.extra_configs.items():
            if extras.setdefault(name, factory) is not factory:
                raise StudyError(
                    f"studies disagree on configuration {name!r}")

    cells_by_study: Dict[str, List[StudyCell]] = {
        spec.name: spec.cells(settings) for spec in specs}
    seen: Dict[StudyCell, None] = {}
    for cells in cells_by_study.values():
        for cell in cells:
            seen.setdefault(cell, None)
    return StudyPlan(settings=settings, specs=specs,
                     cells_by_study=cells_by_study,
                     unique_cells=list(seen), extra_configs=extras)
