"""Content-addressed keys for the persistent result cache.

Results are stored as serialized :class:`RunResult` entries keyed by a
SHA-256 content hash of everything that determines the simulation's
outcome: the full :class:`SystemConfig`, the scaled
:class:`WorkloadSpec`, the generator seed, the warmup fraction, a schema
version, and the *kernel version* -- fingerprints of the simulator
sources the cell's outcome depends on (:mod:`~repro.campaign.versions`).
Any change to a configuration, a workload preset's calibration, the
result wire format, or an engine-relevant source file therefore changes
the key, so stale entries are simply never looked up again -- there is
no invalidation logic to get wrong, and a refactor only cold-starts the
cells whose reachable sources actually changed.

The cache itself is a :class:`~repro.campaign.backends.CacheBackend`:
the local directory of JSON files (the default) or a sqlite file safe
for concurrent writer processes -- see
:func:`~repro.campaign.backends.backend_from_url` for the ``dir://`` /
``sqlite://`` URL forms and :func:`repro.api.open_cache` for the blessed
opener.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from ..engine.results import RESULT_SCHEMA_VERSION
from ..config import SystemConfig
from .versions import kernel_versions

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_CACHE_URL",
    "cache_key",
]

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = Path("results") / "cache"

#: The same default, spelled as a cache URL.
DEFAULT_CACHE_URL = f"dir://{DEFAULT_CACHE_DIR}"


def cache_key(config: SystemConfig, spec, seed: int,
              warmup_fraction: float,
              versions: Optional[Mapping[str, str]] = None) -> str:
    """Content hash identifying one simulation cell.

    ``spec`` is the scaled :class:`~repro.workloads.spec.WorkloadSpec` or
    :class:`~repro.scenarios.spec.ScenarioSpec` (any dataclass whose
    ``asdict`` form captures everything that shapes the generated trace).
    ``versions`` defaults to the kernel-source fingerprints of the groups
    this cell depends on (:func:`~repro.campaign.versions.kernel_versions`);
    pass an explicit mapping to pin or ignore them.
    """
    if versions is None:
        versions = kernel_versions(config, spec)
    payload: Dict[str, Any] = {
        "schema": RESULT_SCHEMA_VERSION,
        "config": config.to_dict(),
        "workload": dataclasses.asdict(spec),
        "seed": seed,
        "warmup_fraction": warmup_fraction,
        "kernel": dict(versions),
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

