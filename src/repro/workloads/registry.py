"""Workload resolution: name -> ready-to-run multithreaded trace.

Names resolve against the workload presets first, then against the
scenario registry, so a scenario short-name is accepted anywhere a
workload preset name is (the study runner, the CLI's ``sweep`` and
``simulate``, the figure drivers).  :func:`resolve_spec` returns the
scaled specification object itself, which is what the result cache hashes
to key a cell.
"""

from __future__ import annotations

from typing import Optional

from ..errors import WorkloadError
from ..trace.trace import MultiThreadedTrace
from .generator import generate_workload
from .presets import WORKLOAD_PRESETS, preset, workload_names
from .spec import WorkloadSpec


def resolve_spec(name_or_spec, ops_per_thread: Optional[int] = None):
    """Resolve a name or spec to a scaled ``WorkloadSpec``/``ScenarioSpec``.

    ``ops_per_thread`` rescales the spec (proportionally across phases for
    scenarios).  Raises :class:`WorkloadError` for unknown names.
    """
    # Imported lazily: the scenarios package builds on the workload layer,
    # so a module-level import would be circular.
    from ..scenarios.registry import DEFAULT_SCENARIO_REGISTRY
    from ..scenarios.spec import ScenarioSpec

    if isinstance(name_or_spec, (WorkloadSpec, ScenarioSpec)):
        spec = name_or_spec
    elif name_or_spec in WORKLOAD_PRESETS:
        spec = preset(name_or_spec)
    elif name_or_spec in DEFAULT_SCENARIO_REGISTRY:
        spec = DEFAULT_SCENARIO_REGISTRY.get(name_or_spec)
    else:
        raise WorkloadError(
            f"unknown workload {name_or_spec!r}; available workloads: "
            f"{', '.join(workload_names())}; scenarios: "
            f"{', '.join(DEFAULT_SCENARIO_REGISTRY.names())}"
        )
    if ops_per_thread is not None:
        spec = spec.scaled(ops_per_thread)
    return spec


def build_trace(name_or_spec, num_threads: int, ops_per_thread: Optional[int] = None,
                seed: int = 0) -> MultiThreadedTrace:
    """Build the trace for a workload preset, scenario name, or spec object.

    ``ops_per_thread`` overrides the spec's trace length (experiments use
    this to trade fidelity for runtime).
    """
    from ..scenarios.engine import generate_scenario
    from ..scenarios.spec import ScenarioSpec

    spec = resolve_spec(name_or_spec, ops_per_thread)
    if isinstance(spec, ScenarioSpec):
        return generate_scenario(spec, num_threads=num_threads, seed=seed)
    return generate_workload(spec, num_threads=num_threads, seed=seed)
