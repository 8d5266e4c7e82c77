"""Tests for the paper's figure studies (scaled far down for speed).

The full-scale figures are exercised by the benchmark harness; here the
concern is that every figure study runs, produces the expected
rows/series, and that obvious qualitative relations hold on a miniature
setup.
"""

import pytest

from repro.campaign import CampaignReport, DEFAULT_REGISTRY
from repro.config import SpeculationMode, StoreBufferKind, ViolationPolicy
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentSettings, make_config
from repro.experiments.figure8 import FIGURE8_CONFIGS
from repro.experiments.tables import (
    figure2_table,
    figure4_table,
    figure5_table,
    figure6_table,
    figure7_table,
)
from repro.studies import DEFAULT_STUDY_REGISTRY, StudyCell, run_study
from repro.studies.runner import StudyContext, StudyRunner

#: miniature settings shared by every test in this module (module-scoped
#: runner so simulations are reused across tests).
SETTINGS = ExperimentSettings.quick(num_cores=4, ops_per_thread=800,
                                    workloads=("apache", "barnes"))


@pytest.fixture(scope="module")
def runner():
    return StudyRunner(SETTINGS)


@pytest.fixture(scope="module")
def ctx(runner):
    return StudyContext(DEFAULT_STUDY_REGISTRY.get("figure8"), SETTINGS,
                        runner, CampaignReport())


def figure(number, runner):
    return run_study(f"figure{number}", SETTINGS, study_runner=runner)


class TestConfigFactory:
    def test_all_names_buildable(self):
        for name in DEFAULT_REGISTRY.names():
            config = make_config(name, SETTINGS)
            assert config.num_cores == SETTINGS.num_cores

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_config("bogus", SETTINGS)

    def test_invisi_configs_use_selective_mode(self):
        assert make_config("invisi_rmo", SETTINGS).speculation.mode is SpeculationMode.SELECTIVE

    def test_continuous_cov_configuration(self):
        config = make_config("invisi_cont_cov", SETTINGS)
        assert config.speculation.mode is SpeculationMode.CONTINUOUS
        assert config.speculation.violation_policy is ViolationPolicy.COMMIT_ON_VIOLATE

    def test_conventional_store_buffers(self):
        assert make_config("sc", SETTINGS).store_buffer.kind is StoreBufferKind.FIFO_WORD
        assert make_config("rmo", SETTINGS).store_buffer.kind is StoreBufferKind.COALESCING_BLOCK


class TestRunnerCaching:
    def test_results_are_cached(self, runner, ctx):
        cell = StudyCell(SETTINGS.num_cores, "sc", "apache", 1)
        first = runner.result(cell)
        assert runner.result(cell) is first
        # the build context reads through the same memo.
        assert ctx.run("sc", "apache", 1) is first
        assert runner.run_cells([cell]).simulated == 0

    def test_traces_are_cached(self, runner):
        trace = runner.trace_for("apache", 1, SETTINGS.num_cores)
        assert runner.trace_for("apache", 1, SETTINGS.num_cores) is trace

    def test_speedup_of_baseline_is_one(self, ctx):
        assert ctx.speedup("sc", "apache", baseline="sc") == pytest.approx(1.0)

    def test_normalized_breakdown_of_baseline_sums_to_100(self, ctx):
        values = ctx.normalized_breakdown("sc", "apache", baseline="sc")
        assert sum(values.values()) == pytest.approx(100.0)


class TestFigureDrivers:
    def test_figure1(self, runner):
        result = figure(1, runner)
        assert set(result.stalls) == set(SETTINGS.workloads)
        for workload in SETTINGS.workloads:
            assert result.total(workload, "sc") >= result.total(workload, "rmo") - 1.0
        assert "Figure 1" in result.format()

    def test_figure8(self, runner):
        result = figure(8, runner)
        for workload in SETTINGS.workloads:
            assert result.speedups[workload]["sc"] == pytest.approx(1.0)
            assert result.speedups[workload]["invisi_rmo"] >= 0.95
        assert result.average_speedup("invisi_sc") >= result.average_speedup("sc")
        assert "Figure 8" in result.format()

    def test_figure9(self, runner):
        result = figure(9, runner)
        for workload in SETTINGS.workloads:
            assert result.total(workload, "sc") == pytest.approx(100.0)
            for config in FIGURE8_CONFIGS:
                assert result.total(workload, config) > 0
        assert "Figure 9" in result.format()

    def test_figure10(self, runner):
        result = figure(10, runner)
        for workload in SETTINGS.workloads:
            for config, value in result.speculation_pct[workload].items():
                assert 0.0 <= value <= 100.0
        assert result.average("invisi_rmo") <= result.average("invisi_sc") + 1.0
        assert "Figure 10" in result.format()

    def test_figure11(self, runner):
        result = figure(11, runner)
        for workload in SETTINGS.workloads:
            assert result.total(workload, "aso_sc") == pytest.approx(100.0)
            # The three proposals perform comparably.
            assert 50.0 < result.total(workload, "invisi_sc") < 200.0
        assert "Figure 11" in result.format()

    def test_figure12(self, runner):
        result = figure(12, runner)
        for workload in SETTINGS.workloads:
            assert result.total(workload, "sc") == pytest.approx(100.0)
            assert result.total(workload, "invisi_rmo") <= 100.0 + 1e-6
        assert "Figure 12" in result.format()


class TestTables:
    def test_figure2_table_lists_models(self):
        text = figure2_table()
        for token in ("SC", "TSO", "RMO", "Drain SB", "Complete store"):
            assert token in text

    def test_figure4_table_defaults_and_measured(self, runner):
        assert "INVISIFENCE-CONTINUOUS" in figure4_table()
        fig10 = figure(10, runner)
        text = figure4_table(fig10)
        assert "%" in text

    def test_figure5_table_mentions_rivals(self):
        text = figure5_table()
        assert "BulkSC" in text and "ASO" in text

    def test_figure6_table_matches_config(self):
        text = figure6_table()
        assert "64KB" in text and "torus" in text

    def test_figure7_table_lists_all_workloads(self):
        text = figure7_table()
        for name in ("apache", "zeus", "oltp-oracle", "oltp-db2", "dss-db2",
                     "barnes", "ocean"):
            assert name in text
