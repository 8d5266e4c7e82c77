"""Work-queue draining: many worker processes, one shared plan and backend.

The study runner's worker pool
(:class:`~repro.studies.runner.StudyRunner` with ``jobs>1``) tops out at
one machine: a parent process owns the cell list and fans cells out to
its own children.  The work queue inverts that: *every*
worker independently compiles the same deduplicated
:class:`~repro.studies.plan.StudyPlan` (plans are deterministic functions
of study names and settings), opens the same shared cache backend, and
drains whatever cells are still missing.  Each cell's cache key and
worker payload come from the runner a ``study run`` of the same plan
uses, and a claimed cell is simulated by the pool workers' entry point
(:func:`~repro.campaign.cells.simulate_cell`), so a drained backend
serves that run entirely from cache.  Coordination happens entirely
through the backend:

* a cell already stored is skipped (someone finished it);
* a missing cell is *claimed* via an atomic lease record
  (:meth:`~repro.campaign.backends.CacheBackend.try_claim`) and checked
  once more before simulation, so no two live workers simulate the same
  cell;
* a lease expires after ``lease_ttl`` seconds, so cells claimed by a
  crashed or wedged worker are re-issued to its peers;
* :meth:`~repro.campaign.backends.CacheBackend.put` clears the lease in
  the same transaction that publishes the entry.

Because cache keys are content-addressed and the engine is
deterministic, the drained store is byte-identical to a serial run's no
matter how many workers raced, which worker won each claim, or in what
order cells completed -- the tests pin this.

``repro worker`` is the CLI surface; see also
:meth:`repro.api.execute_plan` for the in-process equivalent.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING, Tuple

from ..engine.results import RunResult
from ..errors import ReproError
from ..obs.recorder import Recorder, active
from .backends import CacheBackend
from .cells import CellPayload, simulate_cell

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..studies.plan import StudyPlan


def default_worker_id() -> str:
    """A host-unique worker identity for lease records."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerReport:
    """What one :meth:`QueueWorker.drain` call actually did."""

    total: int = 0
    #: cells this worker claimed and simulated.
    simulated: int = 0
    #: claims that took over another worker's expired lease.
    reissued: int = 0
    #: cells another worker completed (present in the backend).
    served_elsewhere: int = 0
    #: poll iterations spent waiting on peers' live leases.
    lease_waits: int = 0
    wall_seconds: float = 0.0

    def describe(self) -> str:
        return (f"{self.simulated} simulated ({self.reissued} reissued), "
                f"{self.served_elsewhere} served elsewhere, "
                f"{self.lease_waits} lease waits, "
                f"{self.wall_seconds:.1f}s")


class QueueWorker:
    """Drains one study plan's missing cells through a shared backend."""

    def __init__(self, plan: "StudyPlan", cache: CacheBackend,
                 worker_id: Optional[str] = None,
                 lease_ttl: float = 60.0, poll_interval: float = 0.05,
                 max_wait: float = 600.0,
                 recorder: Optional[Recorder] = None) -> None:
        if lease_ttl <= 0:
            raise ReproError(f"lease_ttl must be positive, got {lease_ttl}")
        self.plan = plan
        self.cache = cache
        self.worker_id = worker_id if worker_id else default_worker_id()
        self.lease_ttl = lease_ttl
        self.poll_interval = poll_interval
        self.max_wait = max_wait
        self.recorder = active(recorder)
        self.last_report = WorkerReport()

    def _payloads(self) -> List[Tuple[str, CellPayload]]:
        """(cache key, simulation payload) for every unique plan cell.

        Both come from the runner a ``study run`` of the same plan uses,
        so a drained backend serves that run entirely from cache.
        """
        runner = self.plan.runner()
        return [(runner.key_for(cell), runner.payload_for(cell))
                for cell in self.plan.unique_cells]

    def _simulate(self, key: str, payload: CellPayload) -> RunResult:
        rec = self.recorder
        start = time.time() if rec is not None else 0.0
        result = simulate_cell(payload)
        self.cache.put(key, result)
        if rec is not None:
            _, spec, seed, _ = payload
            rec.wall_span(0, "job", start, time.time(),
                          {"workload": getattr(spec, "name", "?"),
                           "seed": seed, "worker": self.worker_id})
        return result

    def drain(self) -> WorkerReport:
        """Claim and simulate missing cells until the plan is fully stored.

        Returns when every unique cell is present in the backend.  Cells
        held under a peer's live lease are polled; if no progress is
        possible for ``max_wait`` seconds (a peer neither finishes nor
        lets its lease expire -- which a crash eventually does), raises
        :class:`~repro.errors.ReproError` naming the stuck cells.
        """
        rec = self.recorder
        start = time.perf_counter()
        pending = self._payloads()
        report = WorkerReport(total=len(pending))
        self.last_report = report  # live view, even if drain() raises
        deadline = time.monotonic() + self.max_wait
        while pending:
            still_pending: List[Tuple[str, CellPayload]] = []
            progressed = False
            for key, payload in pending:
                if self.cache.contains(key):
                    report.served_elsewhere += 1
                    progressed = True
                    continue
                claim = self.cache.try_claim(key, self.worker_id,
                                             self.lease_ttl)
                if claim is None:
                    still_pending.append((key, payload))
                    continue
                if self.cache.contains(key):
                    # A peer stored the cell after the check above; its
                    # put dropped its lease, which is why the claim won.
                    self.cache.release(key, self.worker_id)
                    report.served_elsewhere += 1
                    progressed = True
                    continue
                if claim == "expired":
                    report.reissued += 1
                    if rec is not None:
                        rec.count("queue.reissued")
                if rec is not None:
                    rec.count("queue.claims")
                self._simulate(key, payload)
                report.simulated += 1
                progressed = True
            pending = still_pending
            if progressed:
                deadline = time.monotonic() + self.max_wait
            elif pending:
                if time.monotonic() >= deadline:
                    held = [self.cache.lease_owner(key) for key, _ in pending]
                    raise ReproError(
                        f"worker {self.worker_id}: no progress in "
                        f"{self.max_wait:.0f}s with {len(pending)} cells "
                        f"still leased by {sorted(set(filter(None, held)))}")
                report.lease_waits += 1
                if rec is not None:
                    rec.count("queue.lease_retries")
                time.sleep(self.poll_interval)
        report.wall_seconds = time.perf_counter() - start
        if rec is not None:
            rec.count("queue.cells", report.total)
            rec.count("queue.simulated", report.simulated)
            rec.count("queue.served_elsewhere", report.served_elsewhere)
        return report
