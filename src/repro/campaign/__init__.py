"""Campaign subsystem: declarative configs, parallel execution, caching.

Regenerating the paper's figures is a large (configuration x workload x
seed) cross-product of independent simulations.  This package turns that
cross-product into an explicit *campaign*:

* :mod:`~repro.campaign.registry` -- a declarative registry mapping
  configuration short-names (``sc``, ``invisi_rmo``, ...) to config
  factories, runtime-extensible for new machine variants;
* :mod:`~repro.campaign.jobs` -- the hashable :class:`Job` cell model and
  cross-product helpers;
* :mod:`~repro.campaign.executor` -- :class:`CampaignExecutor`, which fans
  cells out over a ``multiprocessing`` pool (deterministic serial path for
  ``jobs=1``) and returns results in stable order;
* :mod:`~repro.campaign.backends` -- the result cache itself, so
  re-running a figure only simulates missing cells: a local directory
  or one sqlite file (concurrent-writer safe), addressed by ``dir://`` /
  ``sqlite://`` URLs;
* :mod:`~repro.campaign.cache` -- :func:`cache_key`, the content hash
  every backend entry is stored under;
* :mod:`~repro.campaign.versions` -- kernel-source fingerprints embedded
  in cache keys, so an engine refactor invalidates exactly the cells
  whose reachable sources changed;
* :mod:`~repro.campaign.queue` -- :class:`QueueWorker`, the distributed
  work-queue tier: many worker processes drain one deduplicated study
  plan through a shared backend, claiming cells via expiring leases
  (``repro worker`` on the command line).

Studies run their cells through
:class:`~repro.studies.runner.StudyRunner`, which holds one
:class:`CampaignExecutor` per machine size; use this package directly for
custom sweeps (see the CLI's ``sweep`` subcommand).
"""

from .backends import (
    CacheBackend,
    DirectoryBackend,
    SqliteBackend,
    backend_from_url,
)
from .cache import DEFAULT_CACHE_DIR, DEFAULT_CACHE_URL, cache_key
from .executor import CampaignExecutor, CampaignReport
from .jobs import Job, dedupe_jobs, expand_jobs
from .queue import QueueWorker, WorkerReport, default_worker_id
from .registry import DEFAULT_REGISTRY, ConfigFactory, ConfigRegistry, derived
from .versions import group_fingerprint, groups_for, kernel_versions

__all__ = [
    "CacheBackend",
    "CampaignExecutor",
    "CampaignReport",
    "ConfigFactory",
    "ConfigRegistry",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_CACHE_URL",
    "DEFAULT_REGISTRY",
    "DirectoryBackend",
    "Job",
    "QueueWorker",
    "SqliteBackend",
    "WorkerReport",
    "backend_from_url",
    "cache_key",
    "dedupe_jobs",
    "default_worker_id",
    "derived",
    "expand_jobs",
    "group_fingerprint",
    "groups_for",
    "kernel_versions",
]
