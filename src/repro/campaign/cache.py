"""Persistent cache of simulation results over a pluggable backend.

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

Storage is a :class:`~repro.campaign.backends.CacheBackend`: the local
directory of JSON files (the default, layout unchanged since PR 1), a
sqlite shard file safe for concurrent writer processes, or a sharded
composite of either -- see :func:`~repro.campaign.backends.backend_from_url`
for the ``dir://`` / ``sqlite://`` URL forms and
:func:`repro.api.open_cache` for the blessed opener.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..engine.results import RESULT_SCHEMA_VERSION, RunResult
from ..config import SystemConfig
from ..errors import ConfigurationError
from .backends import (
    CacheBackend,
    CacheStats,
    DirectoryBackend,
    backend_from_url,
)
from .versions import kernel_versions

__all__ = [
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_CACHE_URL",
    "ResultCache",
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


class ResultCache:
    """Content-addressed store of :class:`RunResult`\\ s over a backend.

    ``ResultCache(root)`` keeps its historical meaning -- a local
    directory of JSON entries; pass ``backend=`` (any
    :class:`CacheBackend`) or use :meth:`from_url` for sqlite and sharded
    stores.  The cache keeps its own hit/miss/store tallies (what *this*
    front-end observed) while the backend keeps per-shard lifetime
    tallies for reporting.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR,
                 backend: Optional[CacheBackend] = None) -> None:
        self.backend = backend if backend is not None \
            else DirectoryBackend(Path(root))
        self.hits = 0
        self.misses = 0
        self.stores = 0

    @classmethod
    def from_url(cls, url: Union[str, Path]) -> "ResultCache":
        """Open a cache from a ``dir://`` / ``sqlite://`` URL or bare path."""
        return cls(backend=backend_from_url(url))

    @property
    def stats(self) -> CacheStats:
        """Snapshot of this front-end's lifetime tallies."""
        return CacheStats(hits=self.hits, misses=self.misses,
                          stores=self.stores)

    def backend_stats(self) -> List[Tuple[str, CacheStats]]:
        """Per-backend (label, lifetime stats); one entry unless sharded."""
        return self.backend.backend_stats()

    @property
    def sharded(self) -> bool:
        """Whether more than one constituent backend is active."""
        return len(self.backend.backend_stats()) > 1

    def describe(self) -> str:
        """Short location label (the backend's, e.g. ``dir:results/cache``)."""
        return self.backend.label

    @property
    def root(self) -> Path:
        """The directory backend's root (directory caches only)."""
        root = getattr(self.backend, "root", None)
        if root is None:
            raise ConfigurationError(
                f"cache backend {self.backend.label} has no root directory")
        return root

    def path_for(self, key: str) -> Path:
        """On-disk entry path (directory caches only)."""
        path_for = getattr(self.backend, "path_for", None)
        if path_for is None:
            raise ConfigurationError(
                f"cache backend {self.backend.label} has no per-entry paths")
        return path_for(key)

    # -- entries -------------------------------------------------------------

    def get(self, key: str) -> Optional[RunResult]:
        """Load the cached result for ``key``, or ``None`` on a miss.

        Unreadable or schema-incompatible entries count as misses.
        """
        result = self.backend.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> None:
        """Atomically persist ``result`` under ``key``."""
        self.backend.put(key, result)
        self.stores += 1

    def contains(self, key: str) -> bool:
        """Whether :meth:`get` would hit (a decodable entry), without tallying."""
        return self.backend.contains(key)

    def __len__(self) -> int:
        """Number of entries currently stored."""
        return len(self.backend)

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        return self.backend.clear()

    # -- leases (distributed draining) ---------------------------------------

    def try_claim(self, key: str, owner: str, ttl: float) -> Optional[str]:
        """Claim ``key`` for ``owner``; see :meth:`CacheBackend.try_claim`."""
        return self.backend.try_claim(key, owner, ttl)

    def release(self, key: str, owner: str) -> None:
        self.backend.release(key, owner)

    def lease_owner(self, key: str) -> Optional[str]:
        return self.backend.lease_owner(key)
