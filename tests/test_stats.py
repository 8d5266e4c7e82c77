"""Tests for the statistics helpers (breakdowns, confidence intervals, reports)."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.config import ConsistencyModel
from repro.engine.simulator import simulate
from repro.stats.breakdown import (
    average_over_workloads,
    normalized_breakdown,
    normalized_total,
    ordering_stall_breakdown,
    speedup,
    speedup_table,
)
from repro.stats.confidence import mean_confidence_interval
from repro.stats.report import format_breakdown_table, format_series_table, format_table
from repro.trace.ops import atomic, compute, load, store
from tests.conftest import block_addr, make_trace, tiny_config


def run_pair():
    ops = []
    for i in range(15):
        ops.extend([store(block_addr(4000 + i)), load(block_addr(6000 + i)),
                    atomic(block_addr(100)), compute(4)])
    trace = make_trace([ops, [compute(1)]])
    slow = simulate(tiny_config(ConsistencyModel.SC), trace)
    fast = simulate(tiny_config(ConsistencyModel.RMO), trace)
    return slow, fast


class TestBreakdownHelpers:
    def test_speedup_direction(self):
        slow, fast = run_pair()
        assert speedup(fast, slow) > 1.0
        assert speedup(slow, fast) < 1.0

    def test_speedup_table(self):
        slow, fast = run_pair()
        table = speedup_table({"sc": slow, "rmo": fast}, baseline_key="sc")
        assert table["sc"] == pytest.approx(1.0)
        assert table["rmo"] > 1.0

    def test_normalized_breakdown_baseline_sums_to_100(self):
        slow, fast = run_pair()
        values = normalized_breakdown(slow, slow)
        assert sum(values.values()) == pytest.approx(100.0)

    def test_normalized_total_smaller_for_faster_config(self):
        slow, fast = run_pair()
        assert normalized_total(fast, slow) < 100.0

    def test_ordering_stall_breakdown_fractions(self):
        slow, _ = run_pair()
        values = ordering_stall_breakdown(slow)
        assert set(values) == {"sb_full", "sb_drain"}
        assert all(0.0 <= v <= 100.0 for v in values.values())

    def test_average_over_workloads(self):
        assert average_over_workloads({"a": 1.0, "b": 3.0}) == 2.0
        assert average_over_workloads({}) == 0.0


class TestConfidenceIntervals:
    def test_single_sample_zero_width(self):
        interval = mean_confidence_interval([2.5])
        assert interval.mean == 2.5
        assert interval.half_width == 0.0
        assert interval.samples == 1

    def test_single_sample_never_nan_regression(self):
        """n < 2 must yield a finite point estimate, not NaN or an error.

        Regression guard for single-seed runs: ``std(ddof=1)`` of one
        sample is NaN, so the n == 1 case must short-circuit before the
        Student-t machinery at every confidence level.
        """
        for confidence in (0.5, 0.90, 0.95, 0.999):
            interval = mean_confidence_interval([7.25], confidence=confidence)
            assert math.isfinite(interval.mean)
            assert math.isfinite(interval.half_width)
            assert interval.half_width == 0.0
            assert interval.low == interval.mean == interval.high == 7.25
            assert interval.confidence == confidence

    def test_single_sample_accepts_any_iterable(self):
        interval = mean_confidence_interval(iter([3.0]))
        assert interval.samples == 1 and interval.half_width == 0.0

    def test_constant_samples_zero_width(self):
        interval = mean_confidence_interval([1.0, 1.0, 1.0, 1.0])
        assert interval.half_width == pytest.approx(0.0)

    def test_known_interval(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        interval = mean_confidence_interval(samples, confidence=0.95)
        assert interval.mean == pytest.approx(3.0)
        # Half width = t(0.975, 4) * s/sqrt(5) = 2.7764 * 1.5811/2.2361
        assert interval.half_width == pytest.approx(1.9634, rel=1e-3)
        assert interval.low < interval.mean < interval.high

    def test_wider_confidence_gives_wider_interval(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        narrow = mean_confidence_interval(samples, confidence=0.90)
        wide = mean_confidence_interval(samples, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_rejects_empty_and_bad_confidence(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0], confidence=1.5)

    def test_str_representation(self):
        text = str(mean_confidence_interval([1.0, 2.0]))
        assert "±" in text


#: Run in a fresh interpreter with scipy blocked: any ``import scipy``
#: raises, so this passes only if nothing on these paths imports it.
_WITHOUT_SCIPY = textwrap.dedent("""
    import sys
    sys.modules["scipy"] = None
    import repro.cli, repro.experiments
    from repro.experiments import ExperimentSettings
    from repro.studies import run_study
    settings = ExperimentSettings(num_cores=2, ops_per_thread=200,
                                  seeds=(1,), workloads=("barnes",))
    print(run_study("figure8", settings).format())
    loaded = [name for name, module in sys.modules.items()
              if name.split(".")[0] == "scipy" and module is not None]
    assert not loaded, loaded
""")


class TestScipyIsOptionalAtImport:
    def test_cli_and_single_seed_study_run_without_scipy(self):
        """scipy is needed only for a multi-sample t interval."""
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY],
                              capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert "Figure 8" in proc.stdout


class TestReportFormatting:
    def test_format_table_alignment_and_title(self):
        text = format_table(["name", "value"], [["apache", 1.234], ["zeus", 10.5]],
                            title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "apache" in text and "1.23" in text
        # All data rows have the same width as the header row.
        assert len(set(len(line) for line in lines[2:])) >= 1

    def test_format_breakdown_table(self):
        data = {"apache": {"sc": {"busy": 30.0, "other": 50.0},
                           "rmo": {"busy": 30.0, "other": 40.0}}}
        text = format_breakdown_table(data, ["busy", "other"], title="breakdown")
        assert "apache" in text and "sc" in text and "rmo" in text
        assert "80.00" in text  # total column

    def test_format_series_table_handles_missing_configs(self):
        series = {"apache": {"sc": 1.0, "rmo": 1.5}, "zeus": {"sc": 1.0}}
        text = format_series_table(series)
        assert "apache" in text and "zeus" in text
        assert "nan" in text.lower()
