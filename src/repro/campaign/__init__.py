"""Campaign subsystem: declarative configs, cell payloads, caching.

Regenerating the paper's figures is a large (configuration x workload x
seed) cross-product of independent simulations.  This package turns that
cross-product into an explicit *campaign*:

* :mod:`~repro.campaign.registry` -- a declarative registry mapping
  configuration short-names (``sc``, ``invisi_rmo``, ...) to config
  factories, runtime-extensible for new machine variants;
* :mod:`~repro.campaign.cells` -- the picklable payload a worker
  process simulates one cell from, and :class:`CampaignReport`, the tally
  of one campaign run;
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

Every named cell runs through
:class:`~repro.studies.runner.StudyRunner`: it makes the cache lookups,
simulates the misses (serially or on a worker pool) and stores them.  An
ad-hoc sweep is an ad-hoc :class:`~repro.studies.spec.StudySpec` run
through the same runner (see the CLI's ``sweep`` subcommand).
"""

from .backends import (
    CacheBackend,
    DirectoryBackend,
    SqliteBackend,
    backend_from_url,
)
from .cache import DEFAULT_CACHE_DIR, DEFAULT_CACHE_URL, cache_key
from .cells import CampaignReport
from .queue import QueueWorker, WorkerReport, default_worker_id
from .registry import DEFAULT_REGISTRY, ConfigFactory, ConfigRegistry, derived
from .versions import group_fingerprint, groups_for, kernel_versions

__all__ = [
    "CacheBackend",
    "CampaignReport",
    "ConfigFactory",
    "ConfigRegistry",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_CACHE_URL",
    "DEFAULT_REGISTRY",
    "DirectoryBackend",
    "QueueWorker",
    "SqliteBackend",
    "WorkerReport",
    "backend_from_url",
    "cache_key",
    "default_worker_id",
    "derived",
    "group_fingerprint",
    "groups_for",
    "kernel_versions",
]
