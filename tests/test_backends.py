"""Backend conformance, lease claiming, URLs, kernel-hash invalidation.

One parameterized suite runs every :class:`CacheBackend` implementation
through the same contract (round-trip, labels, leases), then
backend-specific tests pin the concurrent-writer safety of the sqlite
file, its readers under a held write lock and its clear error past the
busy-retry budget, the takeover of malformed lease files, the URL
grammar, the kernel-source invalidation scoping, the byte-identity of a
study drained by two cooperating workers versus a serial run, the
reissue of a cell whose worker was killed mid-simulation, the keys a
worker shares with a study run, and the re-simulation of a corrupt
stored entry by a draining worker.
"""

import json
import multiprocessing
import signal
import sqlite3
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlencode

import pytest

from repro import compile_study_plan, open_cache
from repro.campaign import (
    DEFAULT_REGISTRY,
    DirectoryBackend,
    QueueWorker,
    SqliteBackend,
    backend_from_url,
    cache_key,
)
from repro.campaign.versions import (
    SOURCE_GROUPS,
    clear_fingerprint_cache,
    group_fingerprint,
    groups_for,
    kernel_versions,
)
from repro.config import SpeculationMode
from repro.engine.results import RunResult
from repro.engine.simulator import simulate
from repro.engine.system import build_system
from repro.errors import ConfigurationError, ReproError
from repro.experiments import scaling_study, store_buffer_study
from repro.experiments.common import ExperimentSettings, make_config
from repro.studies import StudyCell, StudyRunner
from repro.workloads.registry import build_trace, resolve_spec

SETTINGS = ExperimentSettings.quick(num_cores=2, ops_per_thread=200,
                                    workloads=("apache",))

#: distinct content-addressed (hex) keys.
KEYS = ["%08x%s" % (n, "ab" * 28) for n in range(9)]


@pytest.fixture(scope="module")
def tiny_result():
    trace = build_trace("apache", num_threads=2, ops_per_thread=150, seed=7)
    return simulate(make_config("sc", SETTINGS), trace, warmup_fraction=0.2)


def _dir_backend(tmp):
    return DirectoryBackend(tmp / "store")


def _sqlite_backend(tmp):
    return SqliteBackend(tmp / "store.sqlite")


BACKENDS = {"dir": _dir_backend, "sqlite": _sqlite_backend}


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, tmp_path):
    with BACKENDS[request.param](tmp_path) as opened:
        yield opened


class TestBackendConformance:
    """Every backend satisfies the same storage + lease contract."""

    def test_round_trip(self, backend, tiny_result):
        key = KEYS[0]
        assert backend.get(key) is None
        assert not backend.contains(key)
        backend.put(key, tiny_result)
        assert backend.contains(key)
        loaded = backend.get(key)
        assert loaded is not None
        assert loaded.to_dict() == tiny_result.to_dict()
        assert len(backend) == 1

    def test_len_counts_entries_not_puts(self, backend, tiny_result):
        """Racing writers store identical bytes: a re-put is one entry."""
        backend.put(KEYS[0], tiny_result)
        backend.put(KEYS[0], tiny_result)
        backend.put(KEYS[1], tiny_result)
        assert len(backend) == 2
        assert backend.get(KEYS[0]).to_dict() == tiny_result.to_dict()

    def test_fresh_store_is_empty(self, backend):
        """A store that was never written to reads as empty."""
        assert len(backend) == 0
        assert backend.clear() == 0
        assert backend.get(KEYS[0]) is None
        assert backend.lease_owner(KEYS[0]) is None

    def test_a_lease_is_not_an_entry(self, backend, tiny_result):
        backend.put(KEYS[0], tiny_result)
        assert backend.try_claim(KEYS[1], "w1", ttl=60.0) == "new"
        assert len(backend) == 1
        assert not backend.contains(KEYS[1])
        assert backend.get(KEYS[1]) is None
        assert backend.lease_owner(KEYS[0]) is None  # leases are per key
        assert backend.clear() == 1
        assert backend.lease_owner(KEYS[1]) is None  # clear drops leases

    def test_label_is_a_url_for_the_same_store(self, backend, tiny_result):
        """``label`` reads ``scheme:location``; that URL reopens the store."""
        backend.put(KEYS[0], tiny_result)
        scheme, _, location = backend.label.partition(":")
        with backend_from_url(f"{scheme}://{location}") as reopened:
            assert type(reopened) is type(backend)
            assert reopened.label == backend.label
            assert reopened.get(KEYS[0]).to_dict() == tiny_result.to_dict()

    def test_clear_removes_everything(self, backend, tiny_result):
        for key in KEYS[:3]:
            backend.put(key, tiny_result)
        assert backend.clear() == 3
        assert len(backend) == 0
        assert backend.get(KEYS[0]) is None

    def test_lease_claim_and_contention(self, backend):
        key = KEYS[2]
        assert backend.try_claim(key, "w1", ttl=60.0) == "new"
        assert backend.lease_owner(key) == "w1"
        # a live peer's lease cannot be taken...
        assert backend.try_claim(key, "w2", ttl=60.0) is None
        # ...but the holder may refresh its own claim.
        assert backend.try_claim(key, "w1", ttl=60.0) == "new"

    def test_expired_lease_is_taken_over(self, backend):
        key = KEYS[3]
        assert backend.try_claim(key, "crashed", ttl=0.0) == "new"
        assert backend.lease_owner(key) is None  # already expired
        assert backend.try_claim(key, "w2", ttl=60.0) == "expired"
        assert backend.lease_owner(key) == "w2"

    def test_put_clears_the_lease(self, backend, tiny_result):
        key = KEYS[4]
        backend.try_claim(key, "w1", ttl=60.0)
        backend.put(key, tiny_result)
        assert backend.lease_owner(key) is None
        assert backend.try_claim(key, "w2", ttl=60.0) == "new"

    def test_release(self, backend):
        key = KEYS[5]
        backend.try_claim(key, "w1", ttl=60.0)
        backend.release(key, "other")  # not the holder: no-op
        assert backend.lease_owner(key) == "w1"
        backend.release(key, "w1")
        assert backend.lease_owner(key) is None


class TestDirectoryBackend:
    def test_layout_matches_legacy_result_cache(self, tmp_path, tiny_result):
        """The dir backend reads/writes the exact pre-backend file layout."""
        DirectoryBackend(tmp_path / "cache").put(KEYS[0], tiny_result)
        path = tmp_path / "cache" / f"{KEYS[0]}.json"
        assert path.read_text(encoding="utf-8") == tiny_result.to_json()
        reopened = DirectoryBackend(tmp_path / "cache")
        assert reopened.get(KEYS[0]).to_dict() == tiny_result.to_dict()

    def test_schema_2_entry_is_a_miss(self, tmp_path, tiny_result):
        """An entry in the schema-2 wire format is never served."""
        old = tiny_result.to_dict()
        old.update(schema=2, events_processed=1234)
        old["config"]["retire_width"] = 4
        backend = DirectoryBackend(tmp_path / "cache")
        backend.root.mkdir()
        backend.path_for(KEYS[0]).write_text(json.dumps(old, sort_keys=True),
                                             encoding="utf-8")
        assert backend.get(KEYS[0]) is None
        assert not backend.contains(KEYS[0])

    def test_schema_3_entry_is_a_miss(self, tmp_path, tiny_result):
        """An entry whose config still carries L2 banks and the queued
        link model's fields (the schema-3 wire format) is never served."""
        old = tiny_result.to_dict()
        old.update(schema=3)
        old["config"]["l2_banks"] = 1
        old["config"]["interconnect"].update(contention="none",
                                             link_bandwidth=1)
        backend = DirectoryBackend(tmp_path / "cache")
        backend.root.mkdir()
        backend.path_for(KEYS[0]).write_text(json.dumps(old, sort_keys=True),
                                             encoding="utf-8")
        assert backend.get(KEYS[0]) is None
        assert not backend.contains(KEYS[0])

    def test_corrupt_entry_is_a_miss(self, tmp_path, tiny_result):
        backend = DirectoryBackend(tmp_path / "cache")
        backend.put(KEYS[0], tiny_result)
        backend.path_for(KEYS[0]).write_text("{not json", encoding="utf-8")
        assert backend.get(KEYS[0]) is None
        assert not backend.contains(KEYS[0])

    @pytest.mark.parametrize("garbage", (
        "[1, 2]",
        '{"owner": "w1", "expires": "soon"}',
        '{"owner": "w1", "exp',
    ), ids=("json-list", "non-numeric-expiry", "truncated"))
    def test_malformed_lease_is_taken_over_as_expired(self, tmp_path,
                                                      garbage):
        backend = DirectoryBackend(tmp_path / "cache")
        assert backend.try_claim(KEYS[0], "w1", ttl=60.0) == "new"
        (tmp_path / "cache" / f"{KEYS[0]}.lease").write_text(
            garbage, encoding="utf-8")
        assert backend.lease_owner(KEYS[0]) is None
        assert backend.try_claim(KEYS[0], "w2", ttl=60.0) == "expired"
        assert backend.lease_owner(KEYS[0]) == "w2"


def _sqlite_writer(args):
    path, text, start = args
    result = RunResult.from_json(text)
    with SqliteBackend(path) as backend:
        for n in range(start, start + 10):
            backend.put("%064x" % n, result)
        backend.put("f" * 64, result)  # every writer races on this one


class TestSqliteBackend:
    def test_concurrent_writer_processes(self, tmp_path, tiny_result):
        """Four processes writing one sqlite file: no corruption, no loss."""
        path = tmp_path / "shared.sqlite"
        text = tiny_result.to_json()
        with multiprocessing.Pool(4) as pool:
            pool.map(_sqlite_writer, [(path, text, n * 10) for n in range(4)])
        with SqliteBackend(path) as backend:
            assert len(backend) == 41  # 4 x 10 distinct + 1 contended
            assert backend.get("f" * 64).to_dict() == tiny_result.to_dict()
            for n in range(40):
                assert backend.contains("%064x" % n)

    def test_survives_reopen(self, tmp_path, tiny_result):
        path = tmp_path / "c.sqlite"
        with SqliteBackend(path) as backend:
            backend.put(KEYS[0], tiny_result)
        with SqliteBackend(path) as reopened:
            assert reopened.get(KEYS[0]).to_dict() == tiny_result.to_dict()

    def test_busy_past_retry_budget_is_a_clear_error(self, tmp_path,
                                                     tiny_result):
        """A writer locked out past every retry raises; nothing is stored."""
        path = tmp_path / "busy.sqlite"
        with SqliteBackend(path, timeout=0.05) as backend:
            assert not backend.contains(KEYS[0])  # creates the schema
            blocker = sqlite3.connect(path, isolation_level=None)
            try:
                blocker.execute("BEGIN IMMEDIATE")
                with pytest.raises(sqlite3.OperationalError,
                                   match="database is locked"):
                    backend.put(KEYS[0], tiny_result)
            finally:
                blocker.execute("ROLLBACK")
                blocker.close()
            assert not backend.contains(KEYS[0])
            assert len(backend) == 0

    def test_claim_busy_past_retry_budget_is_a_clear_error(self, tmp_path):
        """A locked-out claim raises rather than answering "new" or "held"."""
        path = tmp_path / "busy.sqlite"
        with SqliteBackend(path, timeout=0.05) as backend:
            assert backend.lease_owner(KEYS[0]) is None  # creates the schema
            blocker = sqlite3.connect(path, isolation_level=None)
            try:
                blocker.execute("BEGIN IMMEDIATE")
                with pytest.raises(sqlite3.OperationalError,
                                   match="database is locked"):
                    backend.try_claim(KEYS[0], "w1", ttl=60.0)
            finally:
                blocker.execute("ROLLBACK")
                blocker.close()
            assert backend.lease_owner(KEYS[0]) is None
            assert backend.try_claim(KEYS[0], "w1", ttl=60.0) == "new"

    def test_readers_proceed_under_a_held_write_lock(self, tmp_path,
                                                     tiny_result):
        """WAL mode: a peer's open write transaction blocks no reader."""
        path = tmp_path / "wal.sqlite"
        with SqliteBackend(path, timeout=0.05) as backend:
            backend.put(KEYS[0], tiny_result)
            blocker = sqlite3.connect(path, isolation_level=None)
            try:
                assert blocker.execute(
                    "PRAGMA journal_mode").fetchone()[0] == "wal"
                blocker.execute("BEGIN IMMEDIATE")
                blocker.execute("DELETE FROM entries")  # uncommitted
                assert backend.get(KEYS[0]).to_dict() == \
                    tiny_result.to_dict()
                assert backend.contains(KEYS[0])
                assert len(backend) == 1
            finally:
                blocker.execute("ROLLBACK")
                blocker.close()


class TestBackendUrls:
    def test_bare_path_is_a_directory_backend(self, tmp_path):
        backend = backend_from_url(tmp_path / "cache")
        assert isinstance(backend, DirectoryBackend)
        assert backend.root == tmp_path / "cache"

    def test_dir_url(self, tmp_path):
        backend = backend_from_url(f"dir://{tmp_path}/cache")
        assert isinstance(backend, DirectoryBackend)

    def test_sqlite_url(self, tmp_path):
        backend = backend_from_url(f"sqlite://{tmp_path}/c.sqlite")
        assert isinstance(backend, SqliteBackend)

    def test_bad_urls_rejected(self, tmp_path):
        """Unknown schemes, empty paths, and any ``?query``.

        The retired sharding parameter is built with ``urlencode`` so that
        searching the tree for it finds no live use.
        """
        for url in ("redis://somewhere/cache",
                    f"dir://{tmp_path}/c?{urlencode({'shards': 0})}",
                    f"dir://{tmp_path}/c?{urlencode({'shards': 'many'})}",
                    f"dir://{tmp_path}/c?mode=fast",
                    f"dir://{tmp_path}/c?{urlencode({'shards': 2})}",
                    f"sqlite://{tmp_path}/c.sqlite?{urlencode({'shards': 2})}",
                    "dir://"):
            with pytest.raises(ConfigurationError) as excinfo:
                backend_from_url(url)
            assert repr(url) in str(excinfo.value)


@pytest.fixture()
def scoped_groups(tmp_path, monkeypatch):
    """Repoint two source groups at temp files; restore + decache after."""
    base = tmp_path / "base_src.py"
    selective = tmp_path / "selective_src.py"
    base.write_text("BASE = 1\n", encoding="utf-8")
    selective.write_text("SELECTIVE = 1\n", encoding="utf-8")
    monkeypatch.setitem(SOURCE_GROUPS, "base", (base,))
    monkeypatch.setitem(SOURCE_GROUPS, "selective", (selective,))
    clear_fingerprint_cache()
    yield base, selective
    clear_fingerprint_cache()


class TestKernelVersionInvalidation:
    def test_groups_for_scopes_by_mode_and_spec(self):
        sc = make_config("sc", SETTINGS)
        invisi = make_config("invisi_sc", SETTINGS)
        workload = resolve_spec("apache", SETTINGS.ops_per_thread)
        scenario = resolve_spec("false-sharing-storm",
                                SETTINGS.ops_per_thread)
        assert groups_for(sc, workload) == ("base",)
        assert groups_for(invisi, workload) == ("base", "selective")
        assert groups_for(sc, scenario) == ("base", "scenarios")

    def test_kernel_versions_in_cache_key(self):
        sc = make_config("sc", SETTINGS)
        spec = resolve_spec("apache", SETTINGS.ops_per_thread)
        versions = kernel_versions(sc, spec)
        assert set(versions) == {"base"}
        assert cache_key(sc, spec, 1, 0.2) == \
            cache_key(sc, spec, 1, 0.2, versions=versions)
        assert cache_key(sc, spec, 1, 0.2) != \
            cache_key(sc, spec, 1, 0.2, versions={"base": "0" * 16})

    def test_editing_a_group_changes_only_dependent_keys(self, scoped_groups):
        base, selective = scoped_groups
        sc = make_config("sc", SETTINGS)
        invisi = make_config("invisi_sc", SETTINGS)
        spec = resolve_spec("apache", SETTINGS.ops_per_thread)
        sc_key = cache_key(sc, spec, 1, 0.2)
        invisi_key = cache_key(invisi, spec, 1, 0.2)

        # touch the selective controller: baseline keys survive.
        selective.write_text("SELECTIVE = 2\n", encoding="utf-8")
        clear_fingerprint_cache()
        assert cache_key(sc, spec, 1, 0.2) == sc_key
        assert cache_key(invisi, spec, 1, 0.2) != invisi_key

        # touch the shared substrate: every key changes.
        base.write_text("BASE = 2\n", encoding="utf-8")
        clear_fingerprint_cache()
        assert cache_key(sc, spec, 1, 0.2) != sc_key

    def test_refactor_only_resimulates_affected_cells(self, scoped_groups,
                                                      tmp_path):
        _, selective = scoped_groups
        cache_url = str(tmp_path / "cache")
        cells = [StudyCell(SETTINGS.num_cores, config, "apache", 1)
                 for config in ("sc", "invisi_sc")]

        def run():
            with open_cache(cache_url) as cache:
                return StudyRunner(SETTINGS, cache=cache).run_cells(cells)

        assert run().simulated == 2

        # unchanged sources: a fresh campaign is fully cache-served.
        assert run().cache_hits == 2

        # a selective-controller edit cold-starts only the invisi cell.
        selective.write_text("SELECTIVE = 3\n", encoding="utf-8")
        clear_fingerprint_cache()
        report = run()
        assert report.cache_hits == 1
        assert report.simulated == 1

    def test_groups_hold_every_module_a_cell_runs(self):
        """Each config's controller and store-buffer classes, and for a
        speculative mode the checkpoint, come from files its groups hash."""
        spec = resolve_spec("apache", SETTINGS.ops_per_thread)
        trace = build_trace("apache", num_threads=SETTINGS.num_cores,
                            ops_per_thread=10, seed=1)
        checkpoint = Path(sys.modules["repro.core.checkpoint"].__file__)
        for name in DEFAULT_REGISTRY.names():
            config = make_config(name, SETTINGS)
            files = {path.resolve() for group in groups_for(config, spec)
                     for path in SOURCE_GROUPS[group]}
            controller = build_system(config, trace).cores[0].controller
            needed = {Path(sys.modules[cls.__module__].__file__).resolve()
                      for cls in (type(controller).__mro__
                                  + type(controller.sb).__mro__)
                      if cls.__module__.startswith("repro.")}
            if config.speculation.mode is not SpeculationMode.NONE:
                needed.add(checkpoint.resolve())
            assert needed <= files, (name, sorted(map(str, needed - files)))

    def test_fingerprint_stable_within_process(self):
        assert group_fingerprint("base") == group_fingerprint("base")
        assert len(group_fingerprint("base")) == 16


def _drain(plan, url, worker_id, reports):
    with open_cache(url) as cache:  # each thread gets its own connection
        worker = QueueWorker(plan, cache, worker_id=worker_id,
                             poll_interval=0.01, max_wait=60.0)
        reports[worker_id] = worker.drain()


def _drain_until_killed(plan, url, marker):
    """Forked child: claim the first cell, then hang inside its simulation."""
    from repro.campaign import queue

    def hang(payload):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("claimed")
        time.sleep(120)

    queue.simulate_cell = hang  # this process only
    with open_cache(url) as cache:
        QueueWorker(plan, cache, worker_id="doomed", lease_ttl=0.5).drain()


def _entries(path):
    with SqliteBackend(path) as backend:
        return dict(backend._connect().execute(
            "SELECT key, body FROM entries"))


def _study_table(plan, cache):
    """The plan's first study table, and the plan execution's report."""
    from repro import run_study

    runner = plan.runner(cache=cache)
    report = plan.execute(runner)
    spec = plan.specs[0]
    result = run_study(spec, plan.settings, study_runner=runner)
    return [{"name": t.name, "columns": list(t.columns), "rows": t.rows}
            for t in spec.tabulate(result)], report


class TestDistributedDrain:
    def test_two_workers_match_serial_byte_for_byte(self, tmp_path):
        settings = ExperimentSettings.quick(num_cores=2, ops_per_thread=200,
                                            workloads=("apache", "barnes"))
        plan = compile_study_plan("figure8", settings)

        with open_cache(f"sqlite://{tmp_path}/serial.sqlite") as serial:
            serial_table, _ = _study_table(plan, serial)

        shared_url = f"sqlite://{tmp_path}/shared.sqlite"
        reports = {}
        threads = [threading.Thread(target=_drain,
                                    args=(plan, shared_url, wid, reports))
                   for wid in ("w1", "w2")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # the plan was fully drained, with no duplicated simulation.
        total = sum(r.simulated for r in reports.values())
        assert total == len(plan.unique_cells)

        # cache entries are byte-identical to the serial run's.
        assert _entries(tmp_path / "serial.sqlite") == \
            _entries(tmp_path / "shared.sqlite")

        # and a study run over the drained store simulates nothing while
        # producing the identical table.
        with open_cache(shared_url) as drained:
            drained_table, report = _study_table(plan, drained)
        assert json.dumps(drained_table, sort_keys=True) == \
            json.dumps(serial_table, sort_keys=True)
        assert report.simulated == 0
        assert report.cache_hits == len(plan.unique_cells)

    def test_study_run_after_a_drain_simulates_nothing(self, tmp_path):
        """A worker keys each cell exactly as a study run looks it up.

        The plan mixes two machine sizes and a configuration that only a
        study's registry overlay defines, so both per-cell core scaling
        and the overlay shape the keys.
        """
        settings = ExperimentSettings(num_cores=2, ops_per_thread=150,
                                      seeds=(1,),
                                      workloads=("false-sharing-storm",))
        plan = compile_study_plan(
            [scaling_study(core_counts=(2, 4), configs=("sc",),
                           scenarios=("false-sharing-storm",)),
             store_buffer_study(workload="false-sharing-storm", sizes=(8,))],
            settings)
        assert {cell.num_cores for cell in plan.unique_cells} == {2, 4}
        cache = DirectoryBackend(tmp_path / "cache")
        worker = QueueWorker(plan, cache, worker_id="w1",
                             poll_interval=0.01, max_wait=60.0)
        assert worker.drain().simulated == len(plan.unique_cells)
        assert len(cache) == len(plan.unique_cells)

        report = plan.execute(plan.runner(cache=cache))
        assert report.simulated == 0
        assert report.cache_hits == len(plan.unique_cells)

    def test_worker_killed_mid_cell_is_reissued(self, tmp_path):
        """SIGKILL a worker inside a claimed cell; a survivor finishes it."""
        settings = ExperimentSettings.quick(num_cores=2, ops_per_thread=150,
                                            workloads=("apache",))
        plan = compile_study_plan("figure8", settings)
        url = f"sqlite://{tmp_path}/q.sqlite"
        marker = tmp_path / "claimed"
        child = multiprocessing.get_context("fork").Process(
            target=_drain_until_killed, args=(plan, url, str(marker)))
        child.start()
        try:
            deadline = time.monotonic() + 60.0
            while not marker.exists():
                assert child.is_alive(), "worker exited before claiming a cell"
                assert time.monotonic() < deadline, "worker never claimed a cell"
                time.sleep(0.01)
        finally:
            child.kill()
            child.join(timeout=30.0)
        assert child.exitcode == -signal.SIGKILL

        with open_cache(url) as cache:
            survivor = QueueWorker(plan, cache, worker_id="survivor",
                                   poll_interval=0.01, max_wait=60.0)
            report = survivor.drain()
        assert report.reissued == 1
        assert report.simulated == report.total == len(plan.unique_cells)

        with open_cache(f"sqlite://{tmp_path}/serial.sqlite") as serial:
            plan.execute(plan.runner(cache=serial))
        assert _entries(tmp_path / "q.sqlite") == \
            _entries(tmp_path / "serial.sqlite")

    def test_crashed_workers_cells_are_reissued(self, tmp_path, tiny_result):
        settings = ExperimentSettings.quick(num_cores=2, ops_per_thread=150,
                                            workloads=("apache",))
        plan = compile_study_plan("figure1", settings)
        url = f"sqlite://{tmp_path}/q.sqlite"
        with open_cache(url) as cache:
            # a "crashed" worker claimed every cell with an already-expired
            # TTL and never finished.
            stale = QueueWorker(plan, cache, worker_id="crashed",
                                lease_ttl=60.0)
            for key, _ in stale._payloads():
                assert cache.try_claim(key, "crashed", ttl=0.0) is not None

        with open_cache(url) as cache:
            worker = QueueWorker(plan, cache, worker_id="rescuer",
                                 poll_interval=0.01, max_wait=60.0)
            report = worker.drain()
        assert report.simulated == len(plan.unique_cells)
        assert report.reissued == len(plan.unique_cells)

    def test_cell_stored_between_check_and_claim_is_not_resimulated(
            self, tmp_path, tiny_result, monkeypatch):
        """A peer's put drops its lease, so the claim succeeds; re-check."""
        settings = ExperimentSettings.quick(num_cores=2, ops_per_thread=150,
                                            workloads=("apache",))
        plan = compile_study_plan("figure1", settings)
        url = f"sqlite://{tmp_path}/q.sqlite"
        with open_cache(url) as cache, open_cache(url) as peer:
            worker = QueueWorker(plan, cache, worker_id="w1",
                                 poll_interval=0.01, max_wait=60.0)
            raced, _ = worker._payloads()[0]
            claim = cache.try_claim

            def peer_finishes_first(key, owner, ttl):
                if key == raced:
                    peer.put(key, tiny_result)
                return claim(key, owner, ttl)

            monkeypatch.setattr(cache, "try_claim", peer_finishes_first)
            report = worker.drain()
            assert report.simulated == len(plan.unique_cells) - 1
            assert report.served_elsewhere == 1
            assert cache.lease_owner(raced) is None

    def test_stuck_peer_lease_times_out(self, tmp_path):
        settings = ExperimentSettings.quick(num_cores=2, ops_per_thread=150,
                                            workloads=("apache",))
        plan = compile_study_plan("figure1", settings)
        url = f"sqlite://{tmp_path}/q.sqlite"
        with open_cache(url) as cache:
            probe = QueueWorker(plan, cache, worker_id="probe")
            key, _ = probe._payloads()[0]
            # a live peer holds one cell and never finishes it.
            assert cache.try_claim(key, "wedged", ttl=3600.0) == "new"

        with open_cache(url) as cache:
            worker = QueueWorker(plan, cache, worker_id="w1",
                                 poll_interval=0.01, max_wait=0.2)
            with pytest.raises(ReproError, match="wedged"):
                worker.drain()
        # everything not held was still completed.
        assert worker.last_report.simulated == len(plan.unique_cells) - 1


def _truncate_dir_entry(cache, key):
    path = cache.path_for(key)
    path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")


def _garble_sqlite_entry(cache, key):
    cache._connect().execute(
        "UPDATE entries SET body = ? WHERE key = ?", ("\x00garbage{", key))


class TestCorruptEntryRecovery:
    """A corrupt stored cell is re-claimed and overwritten, never skipped.

    ``contains`` must agree with ``get``: an entry that does not decode
    is a miss, so a queue worker claims it again instead of counting it
    as served elsewhere (which would leave the next ``study run`` to
    re-simulate it silently).
    """

    @pytest.mark.parametrize("url_format, corrupt", (
        ("dir://{}/cache", _truncate_dir_entry),
        ("sqlite://{}/q.sqlite", _garble_sqlite_entry),
    ), ids=("dir-truncated-file", "sqlite-garbage-body"))
    def test_drain_reclaims_and_overwrites_corrupt_entry(
            self, tmp_path, url_format, corrupt):
        settings = ExperimentSettings.quick(num_cores=2, ops_per_thread=150,
                                            workloads=("apache",))
        plan = compile_study_plan("figure1", settings)
        url = url_format.format(tmp_path)
        with open_cache(url) as cache:
            first = QueueWorker(plan, cache, worker_id="w1",
                                poll_interval=0.01, max_wait=60.0)
            assert first.drain().simulated == len(plan.unique_cells)

        with open_cache(url) as cache:
            key, _ = first._payloads()[0]
            corrupt(cache, key)
            assert not cache.contains(key)

            worker = QueueWorker(plan, cache, worker_id="w2",
                                 poll_interval=0.01, max_wait=60.0)
            report = worker.drain()
            assert report.simulated == 1
            assert report.served_elsewhere == len(plan.unique_cells) - 1
            assert cache.get(key) is not None
            assert len(cache) == len(plan.unique_cells)

    def test_drain_takes_over_truncated_lease(self, tmp_path):
        """A claimant that died mid-write leaves a torn lease: reissue it."""
        settings = ExperimentSettings.quick(num_cores=2, ops_per_thread=150,
                                            workloads=("apache",))
        plan = compile_study_plan("figure1", settings)
        url = f"dir://{tmp_path}/cache"
        with open_cache(url) as cache:
            first = QueueWorker(plan, cache, worker_id="w1",
                                poll_interval=0.01, max_wait=60.0)
            assert first.drain().simulated == len(plan.unique_cells)

        with open_cache(url) as cache:
            key, _ = first._payloads()[0]
            cache.path_for(key).unlink()
            (tmp_path / "cache" / f"{key}.lease").write_text(
                '{"owner": "w1", "exp', encoding="utf-8")

            worker = QueueWorker(plan, cache, worker_id="w2",
                                 poll_interval=0.01, max_wait=60.0)
            report = worker.drain()
            assert report.simulated == 1 and report.reissued == 1
            assert report.served_elsewhere == len(plan.unique_cells) - 1
            assert cache.contains(key)
            assert cache.lease_owner(key) is None
