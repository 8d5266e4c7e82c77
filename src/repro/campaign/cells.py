"""One cell's worker payload, and the tally of one campaign run.

A pool worker (:class:`~repro.studies.runner.StudyRunner` with
``jobs>1``) or a distributed worker (:class:`~repro.campaign.queue.
QueueWorker`) simulates a cell from its :data:`CellPayload` alone.  The
worker rebuilds the trace from the (spec, seed) rather than receiving it
pickled: a trace is orders of magnitude bigger than its spec, and
regenerating it is far cheaper than one simulation.  The *resolved* spec
object is shipped (not the workload name), so scenarios or presets
registered at runtime in the parent also work under spawn-based
``multiprocessing``, where workers re-import the registries from scratch.
Campaigns always run the fast engine; cache keys and entries do not
depend on the engine.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from ..config import SystemConfig
from ..engine.results import RunResult
from ..engine.simulator import simulate
from ..workloads.registry import build_trace
from .backends import CacheBackend

#: (config, scaled workload/scenario spec, seed, warmup_fraction) --
#: everything a worker needs to simulate one cell, all cheaply picklable.
CellPayload = Tuple[SystemConfig, object, int, float]


def simulate_cell(payload: CellPayload) -> RunResult:
    """Worker entry point: build the trace and simulate one cell."""
    config, spec, seed, warmup_fraction = payload
    trace = build_trace(spec, num_threads=config.num_cores, seed=seed)
    return simulate(config, trace, warmup_fraction=warmup_fraction)


def simulate_cell_timed(payload: CellPayload):
    """:func:`simulate_cell`, plus epoch timestamps and the worker's pid.

    Used only when a recorder is attached, so the parent can place each
    job on the campaign's wall-clock tracks.  The result is unchanged:
    the timing wraps the exact same simulation call.
    """
    start = time.time()
    result = simulate_cell(payload)
    return result, start, time.time(), os.getpid()


@dataclass
class CampaignReport:
    """What one :meth:`~repro.studies.runner.StudyRunner.run_cells` call did."""

    total: int = 0
    simulated: int = 0
    cache_hits: int = 0
    #: duplicate cells folded into one simulation.
    deduplicated: int = 0

    def describe(self, cache: Optional[CacheBackend] = None) -> str:
        """One-line human summary (shared by the CLI and scripts)."""
        where = "no cache" if cache is None else cache.label
        return (f"{self.simulated} simulated, {self.cache_hits} cache hits "
                f"({where})")
