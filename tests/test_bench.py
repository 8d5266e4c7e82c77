"""Tests for the ``repro bench`` harness and CLI (the perf trajectory)."""

import copy
import json

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    BenchPreset,
    check_against_baseline,
    format_baseline_delta,
    format_bench_report,
    load_report,
    run_bench,
    write_report,
)
from repro.bench.harness import KERNEL_CONFIGS, SCENARIO_NAME
from repro.cli import main

_PRESET = BenchPreset(name="test", workload="apache", num_cores=2,
                      ops_per_thread=120, seed=3, repeats=1)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("bench-cache")
    return run_bench(_PRESET, cache_dir=cache_dir)


class TestBenchReport:
    def test_schema_and_sections(self, report):
        assert report["schema"] == BENCH_SCHEMA_VERSION
        assert report["preset"]["workload"] == "apache"
        assert report["preset"]["engine"] == "fast"
        assert {k["config"] for k in report["kernels"]} == set(KERNEL_CONFIGS)
        assert report["scenario"]["name"] == SCENARIO_NAME

    def test_kernel_metrics_are_positive_and_consistent(self, report):
        for kernel in report["kernels"]:
            assert kernel["total_ops"] == 2 * 120
            assert kernel["best_seconds"] > 0
            assert kernel["ops_per_sec"] > 0
            assert kernel["runtime_cycles"] > 0
            assert kernel["events_processed"] >= kernel["total_ops"]

    def test_campaign_cold_and_cached_timed(self, report):
        campaign = report["campaign"]
        assert campaign["cells"] == 2
        assert campaign["cold_seconds"] > 0
        assert campaign["cached_seconds"] > 0

    def test_studies_plan_timed(self, report):
        """Schema v3: the unified all-studies plan is timed cold vs cached."""
        studies = report["studies"]
        assert studies["studies"] >= 10
        assert studies["cells"] > studies["unique_jobs"] > 0
        assert studies["cold_seconds"] > 0
        assert studies["cached_seconds"] > 0

    def test_distributed_section_partitions_and_matches(self, report):
        """Schema v6: 1-vs-2-worker queue drains over one sqlite backend."""
        distributed = report["distributed"]
        assert distributed["study"] == "figure8"
        assert distributed["cells"] > 0
        assert distributed["one_worker_simulated"] == distributed["cells"]
        assert sum(distributed["two_worker_simulated"]) == distributed["cells"]
        assert distributed["identical"], "drains must be byte-identical"
        assert distributed["one_worker_seconds"] > 0
        assert distributed["two_worker_seconds"] > 0
        assert "distributed figure8" in format_bench_report(report)

    def test_telemetry_section_timed(self, report):
        """Schema v5: disabled-recorder overhead is measured and exported."""
        telemetry = report["telemetry"]
        assert telemetry["config"] == "sc"
        assert telemetry["total_ops"] >= 2 * 2000  # dedicated ops floor
        assert telemetry["off_seconds"] > 0
        assert telemetry["null_seconds"] > 0
        assert telemetry["traced_seconds"] > 0
        assert telemetry["overhead_frac"] < 0.02  # the zero-overhead contract

    def test_round_trips_through_disk(self, report, tmp_path):
        path = tmp_path / "BENCH_kernel.json"
        write_report(report, path)
        assert load_report(path) == report

    def test_format_is_human_readable(self, report):
        text = format_bench_report(report)
        assert "ops/s" in text
        for name in KERNEL_CONFIGS:
            assert name in text


class TestBaselineCheck:
    def test_passes_against_itself(self, report):
        assert check_against_baseline(report, copy.deepcopy(report)) == []

    def test_detects_kernel_regression(self, report):
        baseline = copy.deepcopy(report)
        for kernel in baseline["kernels"]:
            kernel["ops_per_sec"] *= 10  # pretend we used to be 10x faster
        failures = check_against_baseline(report, baseline, tolerance=0.30)
        assert len(failures) == len(KERNEL_CONFIGS)
        assert all("below" in failure for failure in failures)

    def test_tolerance_allows_bounded_slowdown(self, report):
        baseline = copy.deepcopy(report)
        for kernel in baseline["kernels"]:
            kernel["ops_per_sec"] *= 1.2  # 20% slower than baseline
        assert check_against_baseline(report, baseline, tolerance=0.30) == []

    def test_preset_mismatch_is_a_failure(self, report):
        """Different engine or scale => numbers are not comparable."""
        baseline = copy.deepcopy(report)
        baseline["preset"]["engine"] = "reference"
        baseline["preset"]["ops_per_thread"] = 999
        failures = check_against_baseline(report, baseline)
        assert len(failures) == 2
        assert all("preset mismatch" in failure for failure in failures)

    def test_schema_mismatch_is_a_failure(self, report):
        baseline = copy.deepcopy(report)
        baseline["schema"] = BENCH_SCHEMA_VERSION + 1
        failures = check_against_baseline(report, baseline)
        assert failures and "schema" in failures[0]

    def test_missing_kernel_is_a_failure(self, report):
        baseline = copy.deepcopy(report)
        baseline["kernels"] = baseline["kernels"][:-1]
        failures = check_against_baseline(report, baseline)
        assert any("missing from baseline" in failure for failure in failures)

    def test_distributed_identity_mismatch_is_a_failure(self, report):
        fresh = copy.deepcopy(report)
        fresh["distributed"]["identical"] = False
        failures = check_against_baseline(fresh, copy.deepcopy(report))
        assert any("distributed" in failure and "byte-identical" in failure
                   for failure in failures)

    def test_distributed_partition_violation_is_a_failure(self, report):
        """A cell simulated by both workers means the leases failed."""
        fresh = copy.deepcopy(report)
        fresh["distributed"]["two_worker_simulated"] = [
            fresh["distributed"]["cells"], 1]
        failures = check_against_baseline(fresh, copy.deepcopy(report))
        assert any("partition" in failure for failure in failures)

    def test_missing_distributed_section_is_a_failure(self, report):
        fresh = copy.deepcopy(report)
        del fresh["distributed"]
        failures = check_against_baseline(fresh, copy.deepcopy(report))
        assert any("distributed section missing" in failure
                   for failure in failures)

    def test_telemetry_overhead_gate(self, report):
        """A disabled recorder costing >2% of throughput fails the check."""
        fresh = copy.deepcopy(report)
        fresh["telemetry"]["overhead_frac"] = 0.50
        failures = check_against_baseline(fresh, copy.deepcopy(report))
        assert any("telemetry" in failure and "50.00%" in failure
                   for failure in failures)
        # A custom tolerance lets the inflated report through.
        assert check_against_baseline(fresh, copy.deepcopy(report),
                                      telemetry_tolerance=0.60) == []

    def test_missing_telemetry_section_is_a_failure(self, report):
        fresh = copy.deepcopy(report)
        del fresh["telemetry"]
        failures = check_against_baseline(fresh, copy.deepcopy(report))
        assert any("telemetry section missing" in failure
                   for failure in failures)


class TestBaselineDelta:
    def test_delta_table_covers_every_section(self, report):
        text = format_baseline_delta(report, copy.deepcopy(report))
        for label in ("kernel sc", "scenario splice", "geometry",
                      "telemetry null recorder", "telemetry overhead"):
            assert label in text
        assert "+0.0%" in text  # identical reports: all deltas are zero

    def test_delta_table_shows_signed_movement(self, report):
        baseline = copy.deepcopy(report)
        for kernel in baseline["kernels"]:
            kernel["ops_per_sec"] = kernel["ops_per_sec"] / 2  # we got faster
        text = format_baseline_delta(report, baseline)
        assert "+100.0%" in text

    def test_delta_table_tolerates_missing_baseline_sections(self, report):
        text = format_baseline_delta(report, {"schema": BENCH_SCHEMA_VERSION})
        assert "telemetry overhead" in text
        assert "n/a" in text


class TestBenchCLI:
    def test_bench_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_kernel.json"
        code = main(["bench", "--small", "--ops", "120", "--repeats", "1",
                     "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == BENCH_SCHEMA_VERSION
        assert report["preset"]["name"] == "small"
        assert report["preset"]["ops_per_thread"] == 120  # explicit override
        captured = capsys.readouterr()
        assert "ops/s" in captured.out

    def test_bench_check_passes_against_own_output(self, tmp_path):
        out = tmp_path / "BENCH_kernel.json"
        assert main(["bench", "--small", "--ops", "120", "--repeats", "1",
                     "--output", str(out)]) == 0
        assert main(["bench", "--small", "--ops", "120", "--repeats", "1",
                     "--output", str(tmp_path / "second.json"),
                     "--check", str(out), "--tolerance", "0.95"]) == 0

    def test_bench_check_fails_on_regression(self, tmp_path, capsys):
        out = tmp_path / "BENCH_kernel.json"
        assert main(["bench", "--small", "--ops", "120", "--repeats", "1",
                     "--output", str(out)]) == 0
        baseline = json.loads(out.read_text())
        for kernel in baseline["kernels"]:
            kernel["ops_per_sec"] *= 1000
        inflated = tmp_path / "inflated.json"
        inflated.write_text(json.dumps(baseline))
        code = main(["bench", "--small", "--ops", "120", "--repeats", "1",
                     "--output", str(tmp_path / "third.json"),
                     "--check", str(inflated)])
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err

    def test_reference_engine_supported(self, tmp_path):
        out = tmp_path / "BENCH_ref.json"
        assert main(["bench", "--small", "--ops", "120", "--repeats", "1",
                     "--engine", "reference", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["preset"]["engine"] == "reference"


class TestCommittedBaseline:
    @pytest.mark.parametrize("path", ("benchmarks/bench_baseline.json",
                                      "BENCH_kernel.json"))
    def test_committed_baseline_is_well_formed(self, path):
        """The CI gate's baseline and the committed root report must stay
        loadable and schema-current."""
        baseline = load_report(path)
        assert baseline["schema"] == BENCH_SCHEMA_VERSION
        assert {k["config"] for k in baseline["kernels"]} == set(KERNEL_CONFIGS)
        assert all(k["ops_per_sec"] > 0 for k in baseline["kernels"])
