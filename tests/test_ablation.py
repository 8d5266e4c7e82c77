"""Tests for the ablation/sensitivity studies (tiny scale)."""

import pytest

from repro.experiments.ablation import cov_timeout_study, store_buffer_study
from repro.experiments.common import ExperimentSettings
from repro.studies import run_study
from repro.studies.runner import StudyRunner

SETTINGS = ExperimentSettings.quick(num_cores=4, ops_per_thread=600,
                                    workloads=("apache",))


@pytest.fixture(scope="module")
def runner():
    return StudyRunner(SETTINGS)


class TestStoreBufferAblation:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return run_study(store_buffer_study("apache", sizes=(1, 4, 16)),
                         SETTINGS, study_runner=runner)

    def test_all_sizes_present(self, result):
        assert set(result.cycles) == {1, 4, 16}

    def test_relative_runtime_anchored_at_largest(self, result):
        relative = result.relative_runtime()
        assert relative[16] == pytest.approx(1.0)
        assert all(value >= 0.9 for value in relative.values())

    def test_tiny_buffer_not_faster_than_large(self, result):
        assert result.cycles[1] >= result.cycles[16] * 0.99

    def test_smallest_sufficient_capacity_bounded(self, result):
        assert result.smallest_sufficient_capacity(tolerance=0.10) in (1, 4, 16)

    def test_format_output(self, result):
        text = result.format()
        assert "store-buffer capacity" in text
        assert "SB entries" in text


class TestCovTimeoutAblation:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return run_study(cov_timeout_study("apache", timeouts=(0, 2000)),
                         SETTINGS, study_runner=runner)

    def test_rows_present(self, result):
        assert set(result.cycles) == {0, 2000}
        assert set(result.outcomes) == {0, 2000}

    def test_baseline_is_abort_policy(self, result):
        aborts, cov_commits, _ = result.outcomes[0]
        assert cov_commits >= 0
        # With the abort policy no deferral-driven commits are counted as
        # CoV unless the forward-progress guard engaged.
        assert aborts >= 0

    def test_cov_never_increases_violation(self, result):
        _, _, violation_abort = result.outcomes[0]
        _, _, violation_cov = result.outcomes[2000]
        assert violation_cov <= violation_abort

    def test_format_output(self, result):
        text = result.format()
        assert "commit-on-violate timeout" in text
        assert "abort-immediately" in text
