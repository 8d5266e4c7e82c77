"""Kernel-version fingerprints: cache invalidation by source hash.

Cache keys are content hashes of everything that determines a cell's
outcome (config, scaled workload spec, seed, warmup, wire schema) -- but
the simulator's *source code* also determines the outcome, and a refactor
that changes simulated behaviour must not keep serving stale entries.
Embedding one monolithic hash of the whole package would be correct but
wasteful: touching the selective-speculation controller would cold-start
conventional baseline cells that never execute that code.

Sources are therefore grouped by the machinery a cell can actually reach:

``base``
    the execution substrate every cell runs through -- the engines
    (event loop, fast and reference paths), CPU/core stepping,
    coherence, consistency, store buffers, memory, interconnect, traces,
    workload generation, and the configuration model;
``selective`` / ``continuous`` / ``aso``
    the speculation controller selected by the cell's
    :class:`~repro.config.SpeculationMode`, plus the shared checkpoint
    machinery (ASO's group also holds the selective controller it
    subclasses);
``scenarios``
    the phase-splicing scenario engine, reached only by cells whose
    workload is a :class:`~repro.scenarios.spec.ScenarioSpec`.

:func:`kernel_versions` maps a (config, spec) cell to the fingerprints of
just the groups it depends on; :func:`~repro.campaign.cache.cache_key`
embeds that mapping in the key payload.  After an engine refactor, an
incremental campaign re-simulates exactly the cells whose reachable
sources changed -- everything else is still a cache hit.

Fingerprints are computed once per process (file contents hashed under
:func:`functools.lru_cache`); campaigns pay a few milliseconds at first
key computation, nothing after.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path
from typing import Dict, Tuple

from ..config import SpeculationMode, SystemConfig

#: The installed package root all group paths are resolved against.
_PKG = Path(__file__).resolve().parent.parent


def _tree(*parts: str) -> Tuple[Path, ...]:
    """All python sources under a package subtree, sorted for stability."""
    return tuple(sorted((_PKG.joinpath(*parts)).rglob("*.py")))


def _files(*names: str) -> Tuple[Path, ...]:
    return tuple(_PKG / name for name in names)


#: Source groups, group name -> files whose bytes feed the fingerprint.
#: Mutable on purpose: tests repoint groups at temporary files to prove
#: the invalidation scoping without touching the real tree (call
#: :func:`clear_fingerprint_cache` after mutating).
SOURCE_GROUPS: Dict[str, Tuple[Path, ...]] = {
    "base": (_files("config.py")
             + _tree("engine") + _tree("cpu") + _tree("coherence")
             + _tree("consistency") + _tree("memory") + _tree("interconnect")
             + _tree("trace") + _tree("workloads")
             + _files("core/__init__.py", "core/base.py")),
    "selective": _files("core/selective.py", "core/checkpoint.py"),
    "continuous": _files("core/continuous.py", "core/checkpoint.py"),
    "aso": _tree("aso") + _files("core/selective.py", "core/checkpoint.py"),
    "scenarios": _tree("scenarios"),
}

#: Speculation mode -> the controller source group it executes.
_MODE_GROUPS = {
    SpeculationMode.NONE: None,
    SpeculationMode.SELECTIVE: "selective",
    SpeculationMode.CONTINUOUS: "continuous",
    SpeculationMode.ASO: "aso",
}


@lru_cache(maxsize=None)
def group_fingerprint(group: str) -> str:
    """SHA-256 over a group's file names and contents (hex, 16 chars).

    Missing files hash as empty (a deleted module is itself a change).
    The digest is truncated: 64 bits is ample for "did anything change"
    and keeps key payloads readable.
    """
    digest = hashlib.sha256()
    for path in SOURCE_GROUPS[group]:
        digest.update(path.name.encode("utf-8"))
        try:
            digest.update(path.read_bytes())
        except OSError:
            digest.update(b"<missing>")
    return digest.hexdigest()[:16]


def clear_fingerprint_cache() -> None:
    """Drop memoized fingerprints (after mutating :data:`SOURCE_GROUPS`)."""
    group_fingerprint.cache_clear()


def groups_for(config: SystemConfig, spec: object) -> Tuple[str, ...]:
    """The source groups one (config, spec) cell's outcome depends on."""
    from ..scenarios.spec import ScenarioSpec  # deferred: import cycle

    groups = ["base"]
    mode_group = _MODE_GROUPS.get(config.speculation.mode)
    if mode_group is not None:
        groups.append(mode_group)
    if isinstance(spec, ScenarioSpec):
        groups.append("scenarios")
    return tuple(groups)


def kernel_versions(config: SystemConfig, spec: object) -> Dict[str, str]:
    """Group-name -> fingerprint for the groups this cell depends on."""
    return {group: group_fingerprint(group)
            for group in groups_for(config, spec)}
