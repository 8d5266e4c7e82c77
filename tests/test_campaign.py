"""Tests for the campaign subsystem: registry, cache, and the runner."""

import dataclasses
import json
import weakref

import pytest

import repro.studies.runner as runner_module
from repro.api import compile_study_plan, execute_plan
from repro.campaign import (
    ConfigRegistry,
    DEFAULT_REGISTRY,
    DirectoryBackend,
    cache_key,
    derived,
)
from repro.config import SystemConfig
from repro.engine.results import RunResult
from repro.engine.simulator import simulate
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentSettings, make_config
from repro.experiments.scaling import scaling_study
from repro.studies import StudyCell, StudyRunner, StudySpec
from repro.workloads.presets import preset
from repro.workloads.registry import build_trace

#: miniature scale so the whole module runs in seconds.
SETTINGS = ExperimentSettings.quick(num_cores=2, ops_per_thread=300,
                                    workloads=("apache",))


def cells(configs, seeds=(1,), workload="apache"):
    """Config-major (config, workload, seed) cells at the settings' size."""
    return [StudyCell(SETTINGS.num_cores, config, workload, seed)
            for config in configs for seed in seeds]


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


class TestCells:
    def test_cells_are_hashable_and_ordered(self):
        a = StudyCell(2, "sc", "apache", 1)
        b = StudyCell(2, "sc", "apache", 1)
        assert a == b and hash(a) == hash(b)
        assert StudyCell(2, "sc", "apache", 1) < StudyCell(2, "sc", "apache", 2)

    def test_grid_is_config_major(self):
        spec = StudySpec(name="grid", title="grid", configs=("sc", "tso"),
                         workloads=("apache",), seeds=(1, 2),
                         build=lambda ctx: None, tabulate=lambda result: [])
        assert spec.cells(SETTINGS) == cells(("sc", "tso"), seeds=(1, 2))


class TestResultSerialization:
    def test_json_round_trip(self, tiny_result):
        restored = RunResult.from_json(tiny_result.to_json())
        assert restored.config == tiny_result.config
        assert restored.workload == tiny_result.workload
        assert restored.seed == tiny_result.seed
        assert restored.runtime == tiny_result.runtime
        assert restored.summary() == tiny_result.summary()

    def test_to_dict_holds_only_observables(self, tiny_result):
        """Engine bookkeeping is in neither the result nor its config."""
        data = tiny_result.to_dict()
        assert set(data) == {"schema", "config", "workload", "core_stats",
                             "runtime", "seed"}
        assert "retire_width" not in data["config"]
        assert "l2_banks" not in data["config"]
        assert set(data["config"]["interconnect"]) == {
            "mesh_width", "mesh_height", "hop_latency"}
        assert data["schema"] == 4

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


class TestRunner:
    CELLS = cells(("sc", "invisi_sc"), seeds=(1, 2))

    def test_cache_populated_then_no_simulation(self, tmp_path):
        cache = DirectoryBackend(tmp_path / "cache")
        runner = StudyRunner(SETTINGS, jobs=1, cache=cache)
        report = runner.run_cells(self.CELLS)
        first = [runner.result(cell) for cell in self.CELLS]
        assert report.simulated == len(self.CELLS)
        assert len(cache) == len(self.CELLS)

        again = StudyRunner(SETTINGS, jobs=1,
                            cache=DirectoryBackend(tmp_path / "cache"))
        report = again.run_cells(self.CELLS)
        second = [again.result(cell) for cell in self.CELLS]
        assert report.simulated == 0
        assert report.cache_hits == len(self.CELLS)
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
        runner = StudyRunner(SETTINGS, jobs=1, cache=cache)
        runner.run_cells(self.CELLS + self.CELLS[:1])
        assert len(gets) == len(set(gets)) == len(self.CELLS)
        assert sorted(puts) == sorted(gets)
        # Memoized cells make no cache call; a fresh runner reads them all.
        runner.run_cells(self.CELLS)
        assert len(gets) == len(self.CELLS)
        StudyRunner(SETTINGS, jobs=1, cache=cache).run_cells(self.CELLS)
        assert len(gets) == 2 * len(self.CELLS)
        assert len(puts) == len(self.CELLS)

    def test_report_describe(self, tmp_path):
        cache = DirectoryBackend(tmp_path / "cache")
        report = StudyRunner(SETTINGS, jobs=1,
                             cache=cache).run_cells(self.CELLS[:1])
        # CI greps this exact prefix; nothing follows the label.
        assert report.describe(cache) == \
            f"1 simulated, 0 cache hits (dir:{tmp_path / 'cache'})"
        assert report.describe() == "1 simulated, 0 cache hits (no cache)"

    def test_duplicate_cells_simulated_once(self):
        runner = StudyRunner(SETTINGS, jobs=1)
        cell = self.CELLS[0]
        report = runner.run_cells([cell, cell])
        assert report.simulated == 1
        assert report.deduplicated == 1
        assert runner.result(cell) is runner.result(cell)

    def test_results_keep_input_order(self):
        runner = StudyRunner(SETTINGS, jobs=1)
        reordered = list(reversed(self.CELLS))
        runner.run_cells(reordered)
        for cell in reordered:
            result = runner.result(cell)
            assert result.workload == cell.workload
            assert result.seed == cell.seed
            assert result.config == make_config(cell.config_name, SETTINGS)

    def test_parallel_matches_serial(self):
        serial = StudyRunner(SETTINGS, jobs=1)
        parallel = StudyRunner(SETTINGS, jobs=4)
        assert parallel.run_cells(self.CELLS).simulated == len(self.CELLS)
        for cell in self.CELLS:
            a, b = serial.result(cell), parallel.result(cell)
            assert a.summary() == b.summary()
            assert a.config == b.config
            assert a.seed == b.seed
            assert [s.to_dict() for s in a.core_stats] == \
                   [s.to_dict() for s in b.core_stats]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            StudyRunner(SETTINGS, jobs=0)


@pytest.fixture()
def trace_builds(monkeypatch):
    """Every trace the runner builds, as (workload, seed, threads)."""
    builds = []
    real_build = runner_module.build_trace

    def build(workload, num_threads, ops_per_thread, seed):
        builds.append((workload, seed, num_threads))
        return real_build(workload, num_threads=num_threads,
                          ops_per_thread=ops_per_thread, seed=seed)

    monkeypatch.setattr(runner_module, "build_trace", build)
    return builds


class TestTraceLifetime:
    """The serial path builds each trace once per size, then lets it go."""

    CELLS = cells(("sc", "tso", "invisi_sc"))

    def test_cells_sharing_a_trace_build_it_once(self, trace_builds):
        runner = StudyRunner(SETTINGS, jobs=1)
        runner.run_cells(self.CELLS)
        assert trace_builds == [("apache", 1, SETTINGS.num_cores)]
        # A later call rebuilds the trace it needs.
        runner.run_cells(cells(("rmo",)))
        assert len(trace_builds) == 2

    def test_trace_is_freed_once_run_returns(self, trace_builds):
        runner = StudyRunner(SETTINGS, jobs=1)
        trace = runner.trace_for("apache", 1, SETTINGS.num_cores)
        alive = weakref.ref(trace)
        runner.run_cells(self.CELLS)
        # run_cells() replayed the memoized trace instead of building another.
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
