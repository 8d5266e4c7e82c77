"""Backend conformance, lease claiming, sharding, kernel-hash invalidation.

One parameterized suite runs every :class:`CacheBackend` implementation
through the same contract (round-trip, stats, leases), then backend-
specific tests pin the concurrent-writer safety of the sqlite shard, the
deterministic key routing of the sharded composite, the URL grammar, the
kernel-source invalidation scoping, the byte-identity of a study
drained by two cooperating workers versus a serial run, and the
re-simulation of a corrupt stored entry by a draining worker.
"""

import json
import multiprocessing
import threading

import pytest

from repro import compile_study_plan, open_cache
from repro.campaign import (
    CampaignExecutor,
    CacheStats,
    DirectoryBackend,
    QueueWorker,
    ResultCache,
    ShardedBackend,
    SqliteBackend,
    backend_from_url,
    cache_key,
    expand_jobs,
)
from repro.campaign.versions import (
    SOURCE_GROUPS,
    clear_fingerprint_cache,
    group_fingerprint,
    groups_for,
    kernel_versions,
)
from repro.engine.results import RunResult
from repro.engine.simulator import simulate
from repro.errors import ConfigurationError, ReproError
from repro.experiments.common import ExperimentSettings, make_config
from repro.workloads.registry import build_trace, resolve_spec

SETTINGS = ExperimentSettings.quick(num_cores=2, ops_per_thread=200,
                                    workloads=("apache",))

#: hex keys routed to different shards of a 3-way composite.
KEYS = ["%08x%s" % (n, "ab" * 28) for n in range(9)]


@pytest.fixture(scope="module")
def tiny_result():
    trace = build_trace("apache", num_threads=2, ops_per_thread=150, seed=7)
    return simulate(make_config("sc", SETTINGS), trace, warmup_fraction=0.2)


def _dir_backend(tmp):
    return DirectoryBackend(tmp / "store")


def _sqlite_backend(tmp):
    return SqliteBackend(tmp / "store.sqlite")


def _sharded_backend(tmp):
    return ShardedBackend([DirectoryBackend(tmp / "shard0"),
                           SqliteBackend(tmp / "shard1.sqlite"),
                           DirectoryBackend(tmp / "shard2")])


BACKENDS = {"dir": _dir_backend, "sqlite": _sqlite_backend,
            "sharded": _sharded_backend}


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, tmp_path):
    return BACKENDS[request.param](tmp_path)


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

    def test_stats_tally_hits_misses_stores(self, backend, tiny_result):
        backend.get(KEYS[0])
        backend.put(KEYS[0], tiny_result)
        backend.get(KEYS[0])
        backend.get(KEYS[1])
        assert backend.stats == CacheStats(hits=1, misses=2, stores=1)

    def test_backend_stats_shape(self, backend):
        entries = backend.backend_stats()
        expected = len(backend.shards) if isinstance(backend, ShardedBackend) \
            else 1
        assert len(entries) == expected
        for label, stats in entries:
            assert isinstance(label, str) and isinstance(stats, CacheStats)

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
        legacy = ResultCache(tmp_path / "cache")
        legacy.put(KEYS[0], tiny_result)
        assert legacy.path_for(KEYS[0]).is_file()
        reopened = DirectoryBackend(tmp_path / "cache")
        assert reopened.get(KEYS[0]).to_dict() == tiny_result.to_dict()

    def test_corrupt_entry_is_a_miss(self, tmp_path, tiny_result):
        backend = DirectoryBackend(tmp_path / "cache")
        backend.put(KEYS[0], tiny_result)
        backend.path_for(KEYS[0]).write_text("{not json", encoding="utf-8")
        assert backend.get(KEYS[0]) is None
        assert backend.stats.misses == 1


def _sqlite_writer(args):
    path, text, start = args
    backend = SqliteBackend(path)
    result = RunResult.from_json(text)
    for n in range(start, start + 10):
        backend.put("%064x" % n, result)
    backend.put("f" * 64, result)  # every writer races on this one
    return backend.stats.stores


class TestSqliteBackend:
    def test_concurrent_writer_processes(self, tmp_path, tiny_result):
        """Four processes writing one shard file: no corruption, no loss."""
        path = tmp_path / "shared.sqlite"
        text = tiny_result.to_json()
        with multiprocessing.Pool(4) as pool:
            stores = pool.map(_sqlite_writer,
                              [(path, text, n * 10) for n in range(4)])
        assert stores == [11, 11, 11, 11]
        backend = SqliteBackend(path)
        assert len(backend) == 41  # 4 x 10 distinct + 1 contended
        assert backend.get("f" * 64).to_dict() == tiny_result.to_dict()
        for n in range(40):
            assert backend.contains("%064x" % n)

    def test_survives_reopen(self, tmp_path, tiny_result):
        path = tmp_path / "c.sqlite"
        SqliteBackend(path).put(KEYS[0], tiny_result)
        reopened = SqliteBackend(path)
        assert reopened.get(KEYS[0]).to_dict() == tiny_result.to_dict()


class TestShardedBackend:
    def test_routing_is_deterministic_and_total(self, tmp_path, tiny_result):
        backend = _sharded_backend(tmp_path)
        for key in KEYS:
            backend.put(key, tiny_result)
        assert len(backend) == len(KEYS)
        # each key lives in exactly the shard the router names.
        for key in KEYS:
            owner = backend.shard_for(key)
            assert owner.contains(key)
            assert sum(shard.contains(key)
                       for shard in backend.shards) == 1
        # a fresh composite over the same stores finds every entry.
        reopened = _sharded_backend(tmp_path)
        for key in KEYS:
            assert reopened.get(key).to_dict() == tiny_result.to_dict()

    def test_keys_spread_across_shards(self, tmp_path, tiny_result):
        backend = _sharded_backend(tmp_path)
        for key in KEYS:
            backend.put(key, tiny_result)
        assert all(len(shard) > 0 for shard in backend.shards)

    def test_non_hex_key_rejected(self, tmp_path):
        backend = _sharded_backend(tmp_path)
        with pytest.raises(ConfigurationError):
            backend.shard_for("not-a-content-hash")

    def test_empty_shard_list_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedBackend([])


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

    def test_sharded_urls(self, tmp_path):
        for url, inner in ((f"dir://{tmp_path}/c?shards=3", DirectoryBackend),
                           (f"sqlite://{tmp_path}/c.sqlite?shards=3",
                            SqliteBackend)):
            backend = backend_from_url(url)
            assert isinstance(backend, ShardedBackend)
            assert len(backend.shards) == 3
            assert all(isinstance(shard, inner) for shard in backend.shards)

    def test_bad_urls_rejected(self, tmp_path):
        for url in ("redis://somewhere/cache",
                    f"dir://{tmp_path}/c?shards=0",
                    f"dir://{tmp_path}/c?shards=many",
                    f"dir://{tmp_path}/c?mode=fast",
                    "dir://"):
            with pytest.raises(ConfigurationError):
                backend_from_url(url)


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
        jobs = expand_jobs(("sc", "invisi_sc"), ("apache",), (1,))

        executor = CampaignExecutor(SETTINGS, cache=open_cache(cache_url))
        executor.run(jobs)
        assert executor.last_report.simulated == 2

        # unchanged sources: a fresh campaign is fully cache-served.
        executor = CampaignExecutor(SETTINGS, cache=open_cache(cache_url))
        executor.run(jobs)
        assert executor.last_report.cache_hits == 2

        # a selective-controller edit cold-starts only the invisi cell.
        selective.write_text("SELECTIVE = 3\n", encoding="utf-8")
        clear_fingerprint_cache()
        executor = CampaignExecutor(SETTINGS, cache=open_cache(cache_url))
        executor.run(jobs)
        assert executor.last_report.cache_hits == 1
        assert executor.last_report.simulated == 1

    def test_fingerprint_stable_within_process(self):
        assert group_fingerprint("base") == group_fingerprint("base")
        assert len(group_fingerprint("base")) == 16


def _drain(plan, url, worker_id, reports):
    cache = open_cache(url)  # each thread gets its own connection
    worker = QueueWorker(plan, cache, worker_id=worker_id,
                         poll_interval=0.01, max_wait=60.0)
    reports[worker_id] = worker.drain()


def _study_table(plan, cache):
    from repro import run_study

    runner = plan.runner(cache=cache)
    plan.execute(runner)
    spec = plan.specs[0]
    result = run_study(spec, plan.settings, study_runner=runner)
    return [{"name": t.name, "columns": list(t.columns), "rows": t.rows}
            for t in spec.tabulate(result)]


class TestDistributedDrain:
    def test_two_workers_match_serial_byte_for_byte(self, tmp_path):
        settings = ExperimentSettings.quick(num_cores=2, ops_per_thread=200,
                                            workloads=("apache", "barnes"))
        plan = compile_study_plan("figure8", settings)

        serial_url = f"sqlite://{tmp_path}/serial.sqlite"
        serial_table = _study_table(plan, open_cache(serial_url))

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
        serial = SqliteBackend(tmp_path / "serial.sqlite")
        shared = SqliteBackend(tmp_path / "shared.sqlite")
        serial_rows = dict(serial._connect().execute(
            "SELECT key, body FROM entries"))
        shared_rows = dict(shared._connect().execute(
            "SELECT key, body FROM entries"))
        assert serial_rows == shared_rows

        # and a study run over the drained store simulates nothing while
        # producing the identical table.
        drained_cache = open_cache(shared_url)
        drained_table = _study_table(plan, drained_cache)
        assert json.dumps(drained_table, sort_keys=True) == \
            json.dumps(serial_table, sort_keys=True)
        assert drained_cache.stats.misses == 0

    def test_crashed_workers_cells_are_reissued(self, tmp_path, tiny_result):
        settings = ExperimentSettings.quick(num_cores=2, ops_per_thread=150,
                                            workloads=("apache",))
        plan = compile_study_plan("figure1", settings)
        url = f"sqlite://{tmp_path}/q.sqlite"
        cache = open_cache(url)

        # a "crashed" worker claimed every cell with an already-expired
        # TTL and never finished.
        stale = QueueWorker(plan, cache, worker_id="crashed",
                            lease_ttl=60.0)
        for key, _ in stale._payloads():
            assert cache.try_claim(key, "crashed", ttl=0.0) is not None

        worker = QueueWorker(plan, open_cache(url), worker_id="rescuer",
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
        cache = open_cache(url)
        worker = QueueWorker(plan, cache, worker_id="w1",
                             poll_interval=0.01, max_wait=60.0)
        raced, _ = worker._payloads()[0]
        peer = open_cache(url)
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
        cache = open_cache(url)
        probe = QueueWorker(plan, cache, worker_id="probe")
        key, _ = probe._payloads()[0]
        # a live peer holds one cell and never finishes it.
        assert cache.try_claim(key, "wedged", ttl=3600.0) == "new"

        worker = QueueWorker(plan, open_cache(url), worker_id="w1",
                             poll_interval=0.01, max_wait=0.2)
        with pytest.raises(ReproError, match="wedged"):
            worker.drain()
        # everything not held was still completed.
        assert worker.last_report.simulated == len(plan.unique_cells) - 1


def _truncate_dir_entry(cache, key):
    path = cache.path_for(key)
    path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")


def _garble_sqlite_entry(cache, key):
    cache.backend._connect().execute(
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
        first = QueueWorker(plan, open_cache(url), worker_id="w1",
                            poll_interval=0.01, max_wait=60.0)
        assert first.drain().simulated == len(plan.unique_cells)

        cache = open_cache(url)
        key, _ = first._payloads()[0]
        corrupt(cache, key)
        assert not cache.contains(key)
        assert cache.stats == CacheStats()  # contains tallies nothing

        worker = QueueWorker(plan, cache, worker_id="w2",
                             poll_interval=0.01, max_wait=60.0)
        report = worker.drain()
        assert report.simulated == 1
        assert report.served_elsewhere == len(plan.unique_cells) - 1
        assert cache.get(key) is not None
        assert cache.stats.hits == 1 and cache.stats.misses == 0
