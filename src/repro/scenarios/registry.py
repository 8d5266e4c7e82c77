"""Declarative registry of named scenarios (mirrors the config registry).

Each short-name maps to a :class:`~repro.scenarios.spec.ScenarioSpec`.
Registered names are immediately usable wherever a workload preset name is
accepted: the study runner and result cache, the CLI's
``scenario run`` / ``sweep`` / ``simulate`` commands, and the scenario
figure driver.  New scenarios are one registration::

    from repro.scenarios import DEFAULT_SCENARIO_REGISTRY, PhaseSpec, ScenarioSpec

    DEFAULT_SCENARIO_REGISTRY.register(ScenarioSpec(
        name="my-scenario",
        description="what it models",
        phases=(
            PhaseSpec("warm", 800, workload=preset("apache")),
            PhaseSpec("storm", 800, pattern="false_sharing",
                      params={"hot_blocks": 2}),
            PhaseSpec("cool", 800, workload=preset("apache")),
        ),
    ))
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ScenarioError
from ..workloads.presets import WORKLOAD_PRESETS, preset
from .spec import PhaseSpec, ScenarioSpec


class ScenarioRegistry:
    """Mapping of scenario short-names to :class:`ScenarioSpec`.

    Iteration order is registration order, so sweeps over ``names()`` are
    deterministic.
    """

    def __init__(self, scenarios: Optional[Dict[str, ScenarioSpec]] = None) -> None:
        self._scenarios: Dict[str, ScenarioSpec] = dict(scenarios or {})

    # -- registration --------------------------------------------------------

    def register(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Register ``spec`` under its own name."""
        if spec.name in self._scenarios:
            raise ScenarioError(f"scenario {spec.name!r} is already registered")
        if spec.name in WORKLOAD_PRESETS:
            # Name resolution checks presets first, so a preset-shadowing
            # scenario would be registered but silently unreachable.
            raise ScenarioError(
                f"scenario name {spec.name!r} collides with a workload preset"
            )
        self._scenarios[spec.name] = spec
        return spec

    def unregister(self, name: str) -> None:
        """Remove a registration (mainly for tests and ad-hoc sweeps)."""
        if name not in self._scenarios:
            raise ScenarioError(f"scenario {name!r} is not registered")
        del self._scenarios[name]

    # -- lookup --------------------------------------------------------------

    def names(self) -> Tuple[str, ...]:
        return tuple(self._scenarios)

    def __contains__(self, name: object) -> bool:
        return name in self._scenarios

    def __iter__(self) -> Iterator[str]:
        return iter(self._scenarios)

    def __len__(self) -> int:
        return len(self._scenarios)

    def get(self, name: str) -> ScenarioSpec:
        """Look up the scenario registered under ``name``."""
        try:
            return self._scenarios[name]
        except KeyError:
            raise ScenarioError(
                f"unknown scenario {name!r}; known: {', '.join(self.names())}"
            ) from None

    def describe_all(self) -> List[Dict[str, str]]:
        """Printable summaries in registration order (``scenario list``)."""
        return [self._scenarios[name].describe() for name in self._scenarios]


# ---------------------------------------------------------------------------
# Built-in scenarios.  Durations are defaults; experiment settings rescale
# them proportionally (ScenarioSpec.scaled), so what matters is the ratio.

def _builtin_scenarios() -> Tuple[ScenarioSpec, ...]:
    return (
        ScenarioSpec(
            name="handoff-pipeline",
            description="streaming pipeline: queue hand-off, rebalance "
                        "barrier, heavier hand-off",
            phases=(
                PhaseSpec("handoff", 1200, pattern="producer_consumer",
                          params={"slots": 32, "payload_blocks": 2}),
                PhaseSpec("rebalance", 600, pattern="barrier",
                          params={"interval": 30}),
                PhaseSpec("handoff-bulk", 1200, pattern="producer_consumer",
                          params={"slots": 16, "payload_blocks": 4}),
            ),
        ),
        ScenarioSpec(
            name="bsp-compute",
            description="bulk-synchronous scientific step: compute, "
                        "barrier, compute",
            phases=(
                PhaseSpec("compute-a", 1200, workload=preset("barnes")),
                PhaseSpec("barrier", 500, pattern="barrier",
                          params={"interval": 50, "spin_reads": 4}),
                PhaseSpec("compute-b", 1200, workload=preset("ocean")),
            ),
        ),
        ScenarioSpec(
            name="rw-cache-churn",
            description="shared cache: read-mostly lookups, write storm, "
                        "scan recovery",
            phases=(
                PhaseSpec("lookups", 1200, pattern="rw_lock",
                          params={"write_fraction": 0.05, "data_blocks": 16}),
                PhaseSpec("churn", 800, pattern="rw_lock",
                          params={"write_fraction": 0.6, "data_blocks": 16}),
                PhaseSpec("rescan", 1000, workload=preset("dss-db2")),
            ),
        ),
        ScenarioSpec(
            name="false-sharing-storm",
            description="web serving disturbed by a falsely-shared "
                        "counter array",
            phases=(
                PhaseSpec("serve", 1000, workload=preset("apache")),
                PhaseSpec("storm", 1000, pattern="false_sharing",
                          params={"hot_blocks": 2, "write_fraction": 0.8}),
                PhaseSpec("recover", 1000, workload=preset("apache")),
            ),
        ),
        ScenarioSpec(
            name="task-pool",
            description="work-stealing runtime: balanced start, barrier, "
                        "imbalanced tail with heavy stealing",
            phases=(
                PhaseSpec("balanced", 1200, pattern="work_stealing",
                          params={"steal_fraction": 0.05}),
                PhaseSpec("sync", 400, pattern="barrier",
                          params={"interval": 40}),
                PhaseSpec("drain", 1200, pattern="work_stealing",
                          params={"steal_fraction": 0.35}),
            ),
        ),
        ScenarioSpec(
            name="pattern-tour",
            description="every sharing-pattern primitive once, in sequence",
            phases=(
                PhaseSpec("producer-consumer", 800, pattern="producer_consumer"),
                PhaseSpec("barrier", 800, pattern="barrier"),
                PhaseSpec("false-sharing", 800, pattern="false_sharing"),
                PhaseSpec("rw-lock", 800, pattern="rw_lock"),
                PhaseSpec("work-stealing", 800, pattern="work_stealing"),
            ),
        ),
    )


#: The registry used by default throughout the campaign and CLI layers.
DEFAULT_SCENARIO_REGISTRY = ScenarioRegistry(
    {spec.name: spec for spec in _builtin_scenarios()})


def scenario_names() -> Tuple[str, ...]:
    """Registered scenario names, in registration order."""
    return DEFAULT_SCENARIO_REGISTRY.names()


def scenario_spec(name: str) -> ScenarioSpec:
    """Look up a scenario in the default registry."""
    return DEFAULT_SCENARIO_REGISTRY.get(name)
