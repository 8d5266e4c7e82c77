"""Simulation results, aggregation helpers, and JSON (de)serialization.

:class:`RunResult` is immutable once built so that results can be shared
freely across processes and cached on disk without defensive copying; the
``to_dict``/``from_dict`` pair (and the ``to_json``/``from_json`` string
forms) is the wire format used by the campaign result cache.

A result holds simulated observables only, so both engines produce the
same bytes.  Engine bookkeeping (heap pushes and pops, ops run inline)
is telemetry: the ``engine.*`` counters of an attached recorder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..config import SystemConfig
from ..cpu.stats import BREAKDOWN_COMPONENTS, CoreStats

#: Version stamp embedded in serialized results; bump on any change to the
#: :class:`RunResult`/:class:`CoreStats` wire format so stale cache entries
#: are treated as misses rather than misread.
#: v2: per-phase stall attribution (``phase_names``/``phase_stats``).
#: v3: simulated observables only: the engine's processed-event count and
#: the configuration's unused retirement width are gone.
#: v4: the configuration lost ``l2_banks`` and the interconnect's
#: ``contention`` and ``link_bandwidth``.
RESULT_SCHEMA_VERSION = 4


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulation run (immutable once constructed)."""

    config: SystemConfig
    workload: str
    core_stats: List[CoreStats]
    #: total runtime in cycles (time at which the last core finished).
    runtime: int
    seed: Optional[int] = None
    #: phase labels, in order, for phase-structured (scenario) runs.
    phase_names: Optional[Tuple[str, ...]] = None
    #: per-phase, per-core counter deltas: ``phase_stats[phase][core]``.
    phase_stats: Optional[List[List[CoreStats]]] = None

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form suitable for ``json.dumps``."""
        data: Dict[str, Any] = {
            "schema": RESULT_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "workload": self.workload,
            "core_stats": [stats.to_dict() for stats in self.core_stats],
            "runtime": self.runtime,
            "seed": self.seed,
        }
        if self.phase_names is not None:
            data["phase_names"] = list(self.phase_names)
            data["phase_stats"] = [[stats.to_dict() for stats in cores]
                                   for cores in self.phase_stats or []]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output."""
        schema = data.get("schema")
        if schema != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported result schema {schema!r} "
                f"(expected {RESULT_SCHEMA_VERSION})"
            )
        phase_names = data.get("phase_names")
        phase_stats = data.get("phase_stats")
        return cls(
            config=SystemConfig.from_dict(data["config"]),
            workload=data["workload"],
            core_stats=[CoreStats.from_dict(d) for d in data["core_stats"]],
            runtime=data["runtime"],
            seed=data.get("seed"),
            phase_names=tuple(phase_names) if phase_names is not None else None,
            phase_stats=[[CoreStats.from_dict(d) for d in cores]
                         for cores in phase_stats]
            if phase_stats is not None else None,
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))

    # -- aggregate views -----------------------------------------------------

    def aggregate(self) -> CoreStats:
        """Sum of all per-core counters."""
        total = CoreStats()
        for stats in self.core_stats:
            total.merge(stats)
        return total

    def breakdown(self, normalize: bool = False) -> Dict[str, float]:
        """Cycle breakdown summed over cores, optionally as fractions."""
        total = self.aggregate()
        values = {name: float(getattr(total, name)) for name in BREAKDOWN_COMPONENTS}
        if normalize:
            denom = sum(values.values())
            if denom > 0:
                values = {k: v / denom for k, v in values.items()}
        return values

    def cycles_per_core(self) -> float:
        """Average accounted cycles per core (a runtime proxy that is
        insensitive to end-of-trace idling on non-critical cores)."""
        if not self.core_stats:
            return 0.0
        return sum(s.total_accounted() for s in self.core_stats) / len(self.core_stats)

    def ordering_stall_fraction(self) -> float:
        """Fraction of accounted cycles lost to memory ordering (Figure 1)."""
        total = self.aggregate()
        accounted = total.total_accounted()
        if accounted == 0:
            return 0.0
        return total.ordering_stall_cycles() / accounted

    def speculation_fraction(self) -> float:
        """Fraction of accounted cycles spent speculating (Figure 10)."""
        total = self.aggregate()
        accounted = total.total_accounted()
        if accounted == 0:
            return 0.0
        return min(1.0, total.spec_cycles / accounted)

    def speedup_over(self, baseline: "RunResult") -> float:
        """Speedup of this run relative to ``baseline`` (same workload)."""
        if self.cycles_per_core() == 0:
            return 0.0
        return baseline.cycles_per_core() / self.cycles_per_core()

    def summary(self) -> Dict[str, float]:
        """Flat summary used by reports and benchmark assertions."""
        total = self.aggregate()
        out: Dict[str, float] = {
            "runtime": float(self.runtime),
            "cycles_per_core": self.cycles_per_core(),
            "ordering_stall_fraction": self.ordering_stall_fraction(),
            "speculation_fraction": self.speculation_fraction(),
            "commits": float(total.commits),
            "aborts": float(total.aborts),
            "speculations": float(total.speculations),
        }
        out.update({name: float(getattr(total, name)) for name in BREAKDOWN_COMPONENTS})
        return out


def aggregate_breakdown(results: List[RunResult],
                        normalize_to: Optional[RunResult] = None) -> Dict[str, float]:
    """Average the breakdowns of several runs (e.g. different seeds).

    When ``normalize_to`` is given, each component is expressed as a
    fraction of that run's total accounted cycles (the paper's
    "% of cycles normalised to sc" presentation).
    """
    if not results:
        return {name: 0.0 for name in BREAKDOWN_COMPONENTS}
    denom = None
    if normalize_to is not None:
        denom = sum(normalize_to.breakdown().values())
    combined: Dict[str, float] = {name: 0.0 for name in BREAKDOWN_COMPONENTS}
    for result in results:
        values = result.breakdown()
        scale = denom if denom else sum(values.values())
        for name in BREAKDOWN_COMPONENTS:
            combined[name] += (values[name] / scale) if scale else 0.0
    return {name: value / len(results) for name, value in combined.items()}
