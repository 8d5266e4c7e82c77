"""Shared experiment machinery: configuration short-names and settings.

The machine configurations evaluated by the paper are referred to by short
names throughout the experiment drivers and benchmarks:

==================  =========================================================
name                meaning
==================  =========================================================
``sc``              conventional SC (word FIFO store buffer)
``tso``             conventional TSO
``rmo``             conventional RMO (coalescing store buffer)
``invisi_sc``       InvisiFence-Selective enforcing SC, one checkpoint
``invisi_tso``      InvisiFence-Selective enforcing TSO
``invisi_rmo``      InvisiFence-Selective enforcing RMO
``invisi_sc_2ckpt`` InvisiFence-Selective (SC) with two checkpoints
``aso_sc``          the ASO baseline (ASOsc)
``invisi_cont``     InvisiFence-Continuous, abort-immediately policy
``invisi_cont_cov`` InvisiFence-Continuous with commit-on-violate
==================  =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..campaign.registry import DEFAULT_REGISTRY
from ..config import SystemConfig
from ..workloads.presets import workload_names


@dataclass(frozen=True)
class ExperimentSettings:
    """Scale and scope of an experiment run."""

    num_cores: int = 16
    ops_per_thread: int = 20_000
    seeds: Tuple[int, ...] = (1,)
    workloads: Tuple[str, ...] = tuple(workload_names())
    #: commit-on-violate timeout (paper: 4000 cycles).
    cov_timeout: int = 4000
    #: leading fraction of each trace excluded from statistics (cache warmup).
    warmup_fraction: float = 0.2

    @classmethod
    def quick(cls, num_cores: int = 8, ops_per_thread: int = 4_000,
              workloads: Optional[Sequence[str]] = None,
              seeds: Sequence[int] = (1,)) -> "ExperimentSettings":
        """A scaled-down setup for tests and the benchmark harness."""
        return cls(num_cores=num_cores, ops_per_thread=ops_per_thread,
                   seeds=tuple(seeds),
                   workloads=tuple(workloads) if workloads is not None
                   else tuple(workload_names()))


def make_config(name: str, settings: ExperimentSettings) -> SystemConfig:
    """Build the :class:`SystemConfig` for a configuration short-name.

    Delegates to the campaign subsystem's declarative registry
    (:data:`repro.campaign.DEFAULT_REGISTRY`); new variants registered there
    are immediately available here and in the CLI.
    """
    return DEFAULT_REGISTRY.make(name, settings)
