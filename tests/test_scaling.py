"""Tests for the machine-scaling study (experiments/scaling.py + CLI)."""

import pytest

from repro.campaign import DEFAULT_REGISTRY, DirectoryBackend, derived
from repro.cli import main
from repro.config import InterconnectConfig, resolved_interconnect, small_config
from repro.cpu.stats import BREAKDOWN_COMPONENTS
from repro.engine.simulator import Simulator
from repro.engine.system import build_system
from repro.experiments import ExperimentSettings, scaling_study
from repro.studies import StudyCell, StudyRunner, run_study
from repro.workloads.registry import build_trace

CORE_COUNTS = (2, 4)
CONFIGS = ("sc", "invisi_sc")
SCENARIOS = ("false-sharing-storm",)


def tiny_settings(ops: int = 240) -> ExperimentSettings:
    return ExperimentSettings(num_cores=max(CORE_COUNTS), ops_per_thread=ops,
                              seeds=(1,), workloads=SCENARIOS)


def run_tiny(jobs: int = 1, cache=None):
    return run_study(scaling_study(CORE_COUNTS, CONFIGS, SCENARIOS),
                     tiny_settings(), jobs=jobs, cache=cache)


class TestRunScaling:
    def test_covers_every_cell(self):
        result = run_tiny()
        for scenario in SCENARIOS:
            for config in CONFIGS:
                curve = result.throughput[scenario][config]
                assert set(curve) == set(CORE_COUNTS)
                assert all(value > 0 for value in curve.values())
        assert result.report.simulated == len(CORE_COUNTS) * len(CONFIGS)

    def test_normalization_anchors_at_smallest_count(self):
        result = run_tiny()
        for scenario in SCENARIOS:
            for config in CONFIGS:
                curve = result.normalized(scenario, config)
                assert curve[min(CORE_COUNTS)] == pytest.approx(1.0)

    def test_breakdowns_are_percentages_per_geometry(self):
        result = run_tiny()
        assert len(result.breakdowns) == len(CORE_COUNTS) * len(SCENARIOS)
        for label, per_config in result.breakdowns.items():
            assert "@" in label
            for config in CONFIGS:
                values = per_config[config]
                assert set(values) == set(BREAKDOWN_COMPONENTS)
                assert sum(values.values()) == pytest.approx(100.0)

    def test_format_mentions_geometries_and_configs(self):
        text = run_tiny().format()
        assert "stall attribution" in text
        assert "1x2" in text and "2x2" in text
        for config in CONFIGS:
            assert config in text

    def test_serial_and_parallel_byte_identical(self, tmp_path):
        serial_cache = DirectoryBackend(tmp_path / "serial")
        parallel_cache = DirectoryBackend(tmp_path / "parallel")
        serial = run_tiny(jobs=1, cache=serial_cache)
        parallel = run_tiny(jobs=2, cache=parallel_cache)
        assert serial.format() == parallel.format()
        serial_entries = sorted(p.name for p in serial_cache.root.glob("*.json"))
        parallel_entries = sorted(p.name for p in parallel_cache.root.glob("*.json"))
        assert serial_entries == parallel_entries and serial_entries
        for name in serial_entries:
            assert ((serial_cache.root / name).read_bytes()
                    == (parallel_cache.root / name).read_bytes())

    def test_cached_rerun_simulates_nothing(self, tmp_path):
        cache = DirectoryBackend(tmp_path / "cache")
        cold = run_tiny(cache=cache)
        warm = run_tiny(cache=cache)
        assert cold.report.simulated == 4
        assert warm.report.simulated == 0
        assert warm.report.cache_hits == 4
        assert cold.format() == warm.format()


class TestGeometryVariantCampaigns:
    def test_core_count_override_matches_serial_and_parallel(self, tmp_path):
        """A registered geometry variant simulates at its own core count."""
        name = "sc@4-test"
        DEFAULT_REGISTRY.register(
            name, derived("sc", num_cores=4,
                          interconnect=resolved_interconnect(4)))
        try:
            settings = ExperimentSettings(num_cores=2, ops_per_thread=200,
                                          seeds=(1,))
            cell = StudyCell(settings.num_cores, name, "apache", 1)
            serial = StudyRunner(settings, jobs=1).result(cell)
            parallel = StudyRunner(settings, jobs=2).result(cell)
            assert serial.config.num_cores == 4
            assert len(serial.core_stats) == 4
            assert serial.to_json() == parallel.to_json()
        finally:
            DEFAULT_REGISTRY.unregister(name)


class TestInterconnectEndToEnd:
    """The network's latency reaches a whole run's result."""

    @staticmethod
    def _run(interconnect, ops, seed):
        trace = build_trace("false-sharing-storm", num_threads=4,
                            ops_per_thread=ops, seed=seed)
        config = small_config(num_cores=4).replace(interconnect=interconnect)
        return Simulator(build_system(config, trace)).run(seed=seed)

    def test_longer_hops_slow_contended_sharing(self):
        runtimes = [self._run(resolved_interconnect(4, hop_latency=hop),
                              ops=300, seed=5).runtime
                    for hop in (20, 80)]
        assert runtimes[1] > runtimes[0]

    def test_ring_runs_are_deterministic(self):
        ring = InterconnectConfig(mesh_width=1, mesh_height=4, hop_latency=20)
        first = self._run(ring, ops=200, seed=9)
        assert first.to_json() == self._run(ring, ops=200, seed=9).to_json()
        # The ring's distances differ from the 2x2 torus's, and so does
        # the run.
        torus = self._run(resolved_interconnect(4, hop_latency=20),
                          ops=200, seed=9)
        assert first.runtime != torus.runtime


class TestScalingCli:
    def test_small_preset_cold_then_cached(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        code = main(["figure", "scaling", "--small", "--cache", cache])
        out = capsys.readouterr().out
        assert code == 0
        assert "stall attribution" in out
        assert "cache hits" in out
        assert "6 simulated" in out

        code = main(["figure", "scaling", "--small", "--cache", cache])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 simulated, 6 cache hits" in out

    def test_cores_flag_rejected_for_scaling(self, capsys):
        code = main(["figure", "scaling", "--small", "--cores", "8",
                     "--no-cache"])
        assert code == 2
        assert "--core-counts" in capsys.readouterr().err

    def test_explicit_core_counts_and_scenarios(self, capsys):
        code = main(["figure", "scaling", "--core-counts", "2,4",
                     "--ops", "200", "--workloads", "task-pool",
                     "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "task-pool" in out
        assert "1x2" in out and "2x2" in out
