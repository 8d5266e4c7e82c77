"""The declarative study model: grids, cells, and result hooks.

A :class:`StudySpec` names one study of the evaluation matrix.  Its axes
(configurations x workloads x seeds x core counts) expand to
:class:`StudyCell`\\ s against a given
:class:`~repro.experiments.common.ExperimentSettings`; unspecified axes
default to the settings, so one spec serves every scale from CI smoke
runs to the full 16-core reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
)

from ..campaign.registry import ConfigFactory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..experiments.common import ExperimentSettings
    from .artifacts import StudyTable
    from .runner import StudyContext

#: A grid axis: an explicit tuple, ``None`` for the settings' value, or a
#: callable of the settings resolved at expansion time (e.g. the live
#: scenario catalogue, or "the settings' first seed only").
WorkloadAxis = Union[None, Tuple[str, ...],
                     Callable[["ExperimentSettings"], Sequence[str]]]
SeedAxis = Union[None, Tuple[int, ...],
                 Callable[["ExperimentSettings"], Sequence[int]]]


@dataclass(frozen=True, order=True)
class StudyCell:
    """One grid point: a (configuration, workload, seed) cell at one
    machine size.  Hashable, so it keys the runner's memo."""

    num_cores: int
    config_name: str
    #: a workload preset name or a scenario name.
    workload: str
    seed: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.config_name}/{self.workload}@{self.seed}/{self.num_cores}c"


@dataclass(frozen=True)
class StudySpec:
    """A declarative study: a cell grid plus result/artifact hooks.

    ``build`` turns the executed grid (via a
    :class:`~repro.studies.runner.StudyContext`) into the study's result
    object -- any object with a ``format()`` method, which is what
    :func:`~repro.studies.runner.run_study` returns.  ``tabulate``
    flattens a result into :class:`~repro.studies.artifacts.StudyTable`
    rows for the JSON/CSV artifact writer.
    """

    name: str
    title: str
    configs: Tuple[str, ...]
    build: Callable[["StudyContext"], Any]
    tabulate: Callable[[Any], List["StudyTable"]]
    #: grid axes; ``None`` means "use the experiment settings' value".
    workloads: WorkloadAxis = None
    seeds: SeedAxis = None
    core_counts: Optional[Tuple[int, ...]] = None
    #: study-private configuration factories overlaid on the default
    #: registry while this study runs (ablation sweep variants).
    extra_configs: Mapping[str, ConfigFactory] = field(default_factory=dict)

    def resolve_workloads(self, settings: "ExperimentSettings") -> Tuple[str, ...]:
        if self.workloads is None:
            return tuple(settings.workloads)
        if callable(self.workloads):
            return tuple(self.workloads(settings))
        return tuple(self.workloads)

    def resolve_seeds(self, settings: "ExperimentSettings") -> Tuple[int, ...]:
        if self.seeds is None:
            return tuple(settings.seeds)
        if callable(self.seeds):
            return tuple(self.seeds(settings))
        return tuple(self.seeds)

    def resolve_core_counts(self, settings: "ExperimentSettings") -> Tuple[int, ...]:
        if self.core_counts is not None:
            return tuple(self.core_counts)
        return (settings.num_cores,)

    def cells(self, settings: "ExperimentSettings") -> List[StudyCell]:
        """Expand the grid against ``settings`` (core-count major, then
        configuration, workload, seed -- the order the drivers iterate in)."""
        workloads = self.resolve_workloads(settings)
        seeds = self.resolve_seeds(settings)
        return [StudyCell(cores, config, workload, seed)
                for cores in self.resolve_core_counts(settings)
                for config in self.configs
                for workload in workloads
                for seed in seeds]

    def describe_grid(self, settings: "ExperimentSettings") -> str:
        """Human one-liner of the grid shape at ``settings`` scale."""
        workloads = self.resolve_workloads(settings)
        seeds = self.resolve_seeds(settings)
        counts = self.resolve_core_counts(settings)
        parts = [f"{len(self.configs)} configs", f"{len(workloads)} workloads",
                 f"{len(seeds)} seeds"]
        if len(counts) > 1:
            parts.append(f"{len(counts)} core counts")
        return " x ".join(parts) + f" = {len(self.cells(settings))} cells"
