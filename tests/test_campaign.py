"""Tests for the campaign subsystem: registry, jobs, cache, and executor."""

import dataclasses
import json
import weakref

import pytest

import repro.campaign.executor as executor_module
from repro.api import compile_study_plan, execute_plan
from repro.campaign import (
    CampaignExecutor,
    CampaignReport,
    ConfigRegistry,
    DEFAULT_REGISTRY,
    DirectoryBackend,
    Job,
    cache_key,
    derived,
    expand_jobs,
)
from repro.config import SystemConfig
from repro.engine.results import RunResult
from repro.engine.simulator import simulate
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentSettings, make_config
from repro.experiments.scaling import scaling_study
from repro.workloads.presets import preset
from repro.workloads.registry import build_trace

#: miniature scale so the whole module runs in seconds.
SETTINGS = ExperimentSettings.quick(num_cores=2, ops_per_thread=300,
                                    workloads=("apache",))


@pytest.fixture()
def tiny_result():
    trace = build_trace("barnes", num_threads=2, ops_per_thread=200, seed=5)
    return simulate(make_config("sc", SETTINGS), trace, warmup_fraction=0.2)


class TestRegistry:
    def test_every_default_name_resolves(self):
        for name in DEFAULT_REGISTRY.names():
            config = DEFAULT_REGISTRY.make(name, SETTINGS)
            assert isinstance(config, SystemConfig)
            assert config.num_cores == SETTINGS.num_cores

    def test_make_config_delegates_to_registry(self):
        for name in DEFAULT_REGISTRY.names():
            assert make_config(name, SETTINGS) == DEFAULT_REGISTRY.make(name, SETTINGS)

    def test_configs_hash_stably(self):
        for name in DEFAULT_REGISTRY.names():
            spec = preset("apache").scaled(SETTINGS.ops_per_thread)
            first = cache_key(make_config(name, SETTINGS), spec, 1, 0.2)
            second = cache_key(make_config(name, SETTINGS), spec, 1, 0.2)
            assert first == second

    def test_distinct_configs_hash_differently(self):
        spec = preset("apache").scaled(SETTINGS.ops_per_thread)
        keys = {cache_key(make_config(name, SETTINGS), spec, 1, 0.2)
                for name in DEFAULT_REGISTRY.names()}
        assert len(keys) == len(DEFAULT_REGISTRY.names())

    def test_config_dict_round_trip(self):
        for name in DEFAULT_REGISTRY.names():
            config = make_config(name, SETTINGS)
            data = json.loads(json.dumps(config.to_dict(), sort_keys=True))
            assert SystemConfig.from_dict(data) == config

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_REGISTRY.make("bogus", SETTINGS)

    def test_runtime_registration(self):
        registry = ConfigRegistry()
        registry.register("sc_variant",
                          derived("sc", memory_latency=320))
        config = registry.make("sc_variant", SETTINGS)
        assert config.memory_latency == 320
        assert config.num_cores == SETTINGS.num_cores
        registry.unregister("sc_variant")
        assert "sc_variant" not in registry

    def test_derived_speculation_override(self):
        factory = derived("invisi_cont_cov", cov_timeout=1234)
        config = factory(SETTINGS)
        assert config.speculation.cov_timeout == 1234

    def test_duplicate_registration_rejected(self):
        registry = ConfigRegistry({"sc": derived("sc")})
        with pytest.raises(ConfigurationError):
            registry.register("sc", derived("sc"))

    def test_names_preserve_registration_order(self):
        assert DEFAULT_REGISTRY.names()[:3] == ("sc", "tso", "rmo")


class TestJobs:
    def test_jobs_are_hashable_and_ordered(self):
        a = Job("sc", "apache", 1)
        b = Job("sc", "apache", 1)
        assert a == b and hash(a) == hash(b)
        assert Job("sc", "apache", 1) < Job("sc", "apache", 2)

    def test_expand_jobs_is_config_major(self):
        jobs = expand_jobs(("sc", "tso"), ("apache",), (1, 2))
        assert jobs == [Job("sc", "apache", 1), Job("sc", "apache", 2),
                        Job("tso", "apache", 1), Job("tso", "apache", 2)]


class TestResultSerialization:
    def test_json_round_trip(self, tiny_result):
        restored = RunResult.from_json(tiny_result.to_json())
        assert restored.config == tiny_result.config
        assert restored.workload == tiny_result.workload
        assert restored.seed == tiny_result.seed
        assert restored.runtime == tiny_result.runtime
        assert restored.summary() == tiny_result.summary()

    def test_schema_mismatch_rejected(self, tiny_result):
        data = tiny_result.to_dict()
        data["schema"] = 999
        with pytest.raises(ValueError):
            RunResult.from_dict(data)

    def test_results_are_immutable(self, tiny_result):
        with pytest.raises(dataclasses.FrozenInstanceError):
            tiny_result.seed = 7


class TestDirectoryCache:
    def test_miss_then_hit(self, tmp_path, tiny_result):
        cache = DirectoryBackend(tmp_path / "cache")
        key = "0" * 64
        assert cache.get(key) is None
        cache.put(key, tiny_result)
        restored = cache.get(key)
        assert restored is not None
        assert restored.summary() == tiny_result.summary()
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path, tiny_result):
        cache = DirectoryBackend(tmp_path / "cache")
        key = "1" * 64
        cache.put(key, tiny_result)
        cache.path_for(key).write_text("{not json")
        assert cache.get(key) is None

    def test_clear(self, tmp_path, tiny_result):
        cache = DirectoryBackend(tmp_path / "cache")
        cache.put("2" * 64, tiny_result)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestExecutor:
    JOBS = expand_jobs(("sc", "invisi_sc"), ("apache",), (1, 2))

    def test_cache_populated_then_no_simulation(self, tmp_path):
        cache = DirectoryBackend(tmp_path / "cache")
        executor = CampaignExecutor(SETTINGS, jobs=1, cache=cache)
        first = executor.run(self.JOBS)
        assert executor.last_report.simulated == len(self.JOBS)
        assert len(cache) == len(self.JOBS)

        again = CampaignExecutor(SETTINGS, jobs=1,
                                 cache=DirectoryBackend(tmp_path / "cache"))
        second = again.run(self.JOBS)
        assert again.last_report.simulated == 0
        assert again.last_report.cache_hits == len(self.JOBS)
        for a, b in zip(first, second):
            assert a.summary() == b.summary()

    def test_one_get_per_unique_cell_one_put_per_simulated_cell(self,
                                                                tmp_path):
        """Instance-level ``get``/``put`` wrappers see every cache call."""
        cache = DirectoryBackend(tmp_path / "cache")
        gets, puts = [], []
        real_get, real_put = cache.get, cache.put

        def get(key):
            gets.append(key)
            return real_get(key)

        def put(key, result):
            puts.append(key)
            real_put(key, result)

        cache.get, cache.put = get, put
        executor = CampaignExecutor(SETTINGS, jobs=1, cache=cache)
        executor.run(self.JOBS + self.JOBS[:1])
        assert len(gets) == len(set(gets)) == len(self.JOBS)
        assert sorted(puts) == sorted(gets)
        executor.run(self.JOBS)
        assert len(gets) == 2 * len(self.JOBS)
        assert len(puts) == len(self.JOBS)

    def test_report_describe_and_merge(self, tmp_path):
        cache = DirectoryBackend(tmp_path / "cache")
        executor = CampaignExecutor(SETTINGS, jobs=1, cache=cache)
        executor.run(self.JOBS[:1])
        report = executor.last_report
        # CI greps this exact prefix; nothing follows the label.
        assert report.describe(cache) == \
            f"1 simulated, 0 cache hits (dir:{tmp_path / 'cache'})"
        assert report.describe() == "1 simulated, 0 cache hits (no cache)"
        report.merge(CampaignReport(total=3, simulated=1, cache_hits=2,
                                    deduplicated=1))
        assert report == CampaignReport(total=4, simulated=2, cache_hits=2,
                                        deduplicated=1)

    def test_duplicate_cells_simulated_once(self):
        executor = CampaignExecutor(SETTINGS, jobs=1)
        job = Job("sc", "apache", 1)
        results = executor.run([job, job])
        assert executor.last_report.simulated == 1
        assert executor.last_report.deduplicated == 1
        assert results[0] is results[1]

    def test_results_keep_input_order(self):
        executor = CampaignExecutor(SETTINGS, jobs=1)
        reordered = list(reversed(self.JOBS))
        results = executor.run(reordered)
        for job, result in zip(reordered, results):
            assert result.workload == job.workload
            assert result.seed == job.seed
            assert result.config == make_config(job.config_name, SETTINGS)

    def test_parallel_matches_serial(self):
        serial = CampaignExecutor(SETTINGS, jobs=1).run(self.JOBS)
        parallel = CampaignExecutor(SETTINGS, jobs=4).run(self.JOBS)
        for a, b in zip(serial, parallel):
            assert a.summary() == b.summary()
            assert a.config == b.config
            assert a.seed == b.seed
            assert [s.to_dict() for s in a.core_stats] == \
                   [s.to_dict() for s in b.core_stats]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            CampaignExecutor(SETTINGS, jobs=0)


@pytest.fixture()
def trace_builds(monkeypatch):
    """Every trace the executor builds, as (workload, seed, threads)."""
    builds = []
    real_build = executor_module.build_trace

    def build(workload, num_threads, ops_per_thread, seed):
        builds.append((workload, seed, num_threads))
        return real_build(workload, num_threads=num_threads,
                          ops_per_thread=ops_per_thread, seed=seed)

    monkeypatch.setattr(executor_module, "build_trace", build)
    return builds


class TestTraceLifetime:
    """The serial path builds each trace once per run, then lets it go."""

    JOBS = expand_jobs(("sc", "tso", "invisi_sc"), ("apache",), (1,))

    def test_jobs_sharing_a_trace_build_it_once(self, trace_builds):
        executor = CampaignExecutor(SETTINGS, jobs=1)
        executor.run(self.JOBS)
        assert trace_builds == [("apache", 1, SETTINGS.num_cores)]
        # A later call rebuilds the trace it needs.
        executor.run([Job("rmo", "apache", 1)])
        assert len(trace_builds) == 2

    def test_trace_is_freed_once_run_returns(self, trace_builds):
        executor = CampaignExecutor(SETTINGS, jobs=1)
        trace = executor.trace_for("apache", 1)
        alive = weakref.ref(trace)
        executor.run(self.JOBS)
        # run() replayed the memoized trace instead of building another.
        assert len(trace_builds) == 1
        del trace
        assert alive() is None

    def test_plan_builds_each_trace_once(self, trace_builds):
        studies = ["figure8", scaling_study(core_counts=(2, 4),
                                            scenarios=("false-sharing-storm",))]
        plan = compile_study_plan(studies, SETTINGS)
        expected = {(cell.workload, cell.seed, cell.num_cores)
                    for cell in plan.unique_cells}
        execute_plan(studies, SETTINGS, jobs=1)
        assert len(trace_builds) == len(set(trace_builds))
        assert set(trace_builds) == expected
