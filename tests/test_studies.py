"""Tests for the declarative study framework (repro.studies)."""

import csv
import json

import pytest

import repro.experiments  # noqa: F401  (imports register the built-in studies)
from repro.campaign import DEFAULT_REGISTRY, DirectoryBackend
from repro.cli import main
from repro.errors import StudyError
from repro.experiments import ExperimentSettings, scaling_study
from repro.obs import TraceRecorder
from repro.studies import (
    DEFAULT_STUDY_REGISTRY,
    METRICS,
    StudyRegistry,
    StudySpec,
    StudyTable,
    compile_plan,
    run_study,
)
from repro.studies.runner import overlay_registry

TINY = ExperimentSettings(num_cores=2, ops_per_thread=300, seeds=(1,),
                          workloads=("barnes",))

ALL_STUDIES = ("figure1", "figure8", "figure9", "figure10", "figure11",
               "figure12", "ablation-sb", "ablation-cov", "scaling",
               "scenarios")


class TestRegistry:
    def test_all_builtin_studies_registered(self):
        assert set(ALL_STUDIES) <= set(DEFAULT_STUDY_REGISTRY.names())

    def test_duplicate_registration_rejected(self):
        registry = StudyRegistry()
        spec = DEFAULT_STUDY_REGISTRY.get("figure1")
        registry.register(spec)
        with pytest.raises(StudyError):
            registry.register(spec)

    def test_unknown_study_rejected(self):
        with pytest.raises(StudyError):
            DEFAULT_STUDY_REGISTRY.get("figure99")


def record_cache_calls(cache):
    """Log every ``get``/``put`` on ``cache`` as ("get"|"put", key)."""
    calls = []
    real_get, real_put = cache.get, cache.put

    def get(key):
        calls.append(("get", key))
        return real_get(key)

    def put(key, result):
        calls.append(("put", key))
        real_put(key, result)

    cache.get, cache.put = get, put
    return calls


class TestPlanCompilation:
    def test_unified_plan_dedups_shared_cells(self):
        """Acceptance: one plan's job count < the sum of per-study cells."""
        settings = ExperimentSettings()  # default scale; compile only
        specs = DEFAULT_STUDY_REGISTRY.specs()
        plan = compile_plan(specs, settings)
        per_study_total = sum(len(spec.cells(settings)) for spec in specs)
        assert plan.total_cells == per_study_total
        assert len(plan.unique_cells) < plan.total_cells
        # The sc baseline alone is shared by figures 1, 8, 9, and 12.
        assert plan.deduplicated >= 3 * len(settings.workloads)

    def test_duplicate_study_names_rejected(self):
        spec = DEFAULT_STUDY_REGISTRY.get("figure1")
        with pytest.raises(StudyError):
            compile_plan([spec, spec], TINY)

    def test_plan_merges_extra_configs(self):
        plan = compile_plan([DEFAULT_STUDY_REGISTRY.get("ablation-sb"),
                             DEFAULT_STUDY_REGISTRY.get("ablation-cov")], TINY)
        registry = plan.registry()
        assert "invisi_sc_sb8" in registry
        assert "invisi_cont_cov_t1000" in registry
        assert "invisi_sc_sb8" not in DEFAULT_REGISTRY  # no global pollution

    def test_one_prefetch_serves_every_study(self, tmp_path):
        """After plan.execute, rebuilding each study simulates nothing."""
        specs = (DEFAULT_STUDY_REGISTRY.get("figure1"),
                 DEFAULT_STUDY_REGISTRY.get("figure8"),
                 DEFAULT_STUDY_REGISTRY.get("figure9"))
        plan = compile_plan(specs, TINY)
        assert plan.total_cells == 15 and len(plan.unique_cells) == 6
        cache = DirectoryBackend(tmp_path / "cache")
        calls = record_cache_calls(cache)
        recorder = TraceRecorder()
        runner = plan.runner(cache=cache, recorder=recorder)
        report = plan.execute(runner)
        assert report.simulated == 6
        plan_calls, plan_counters = len(calls), dict(recorder.counters)
        assert plan_calls == 12 and plan_counters["campaign.jobs"] == 6
        for spec in specs:
            result = run_study(spec, TINY, study_runner=runner)
            assert result.format()
            # the per-study pass only reads memoized results: no further
            # campaign runs, so nothing is simulated, looked up or counted.
            assert len(calls) == plan_calls
            assert dict(recorder.counters) == plan_counters


class TestRunnerOrderOfWork:
    def test_sizes_in_first_appearance_order_gets_before_puts(self,
                                                              tmp_path):
        """Per machine size: one get per unique cell, then one put per
        simulated cell; sizes run in the order they first appear."""
        settings = ExperimentSettings(num_cores=4, ops_per_thread=200,
                                      seeds=(1,), workloads=("barnes",))
        scaling = scaling_study(core_counts=(2, 4), configs=("sc",),
                                scenarios=("false-sharing-storm",))
        plan = compile_plan([DEFAULT_STUDY_REGISTRY.get("figure1"), scaling],
                            settings)
        sizes = [cell.num_cores for cell in plan.unique_cells]
        assert list(dict.fromkeys(sizes)) == [4, 2]  # not numeric order
        cache = DirectoryBackend(tmp_path / "cache")
        calls = record_cache_calls(cache)
        runner = plan.runner(cache=cache)
        report = plan.execute(runner)
        assert report.simulated == len(plan.unique_cells)

        expected = []
        for size in (4, 2):
            keys = [runner.key_for(cell) for cell in plan.unique_cells
                    if cell.num_cores == size]
            expected += [("get", key) for key in keys]
            expected += [("put", key) for key in keys]
        assert calls == expected


class TestRunStudy:
    def test_writes_json_and_csv_artifacts(self, tmp_path):
        result = run_study("figure10", TINY, out_dir=tmp_path)
        assert "Figure 10" in result.format()

        payload = json.loads((tmp_path / "figure10.json").read_text())
        assert payload["schema"] == 1
        assert payload["study"] == "figure10"
        assert payload["settings"]["num_cores"] == TINY.num_cores
        assert payload["grid"]["workloads"] == ["barnes"]
        (table,) = payload["tables"]
        assert table["columns"] == ["workload", "config", "speculation_pct"]
        assert len(table["rows"]) == 3

        with open(tmp_path / "figure10.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["table", "workload", "config", "speculation_pct"]
        assert len(rows) == 1 + len(table["rows"])
        assert rows[1][1] == "barnes"

    def test_repeated_run_is_served_from_cache(self, tmp_path):
        cache = DirectoryBackend(tmp_path / "cache")
        first = run_study("figure1", TINY, cache=cache)
        assert first.format()
        # a fresh runner against the same cache simulates nothing.
        runner = compile_plan([DEFAULT_STUDY_REGISTRY.get("figure1")],
                              TINY).runner(cache=cache)
        report = runner.run_cells(
            DEFAULT_STUDY_REGISTRY.get("figure1").cells(TINY))
        assert report.simulated == 0
        assert report.cache_hits == 3

    def test_scaling_study_core_count_axis(self, tmp_path):
        spec = scaling_study(core_counts=(2, 4), configs=("sc",),
                             scenarios=("false-sharing-storm",))
        settings = ExperimentSettings(num_cores=4, ops_per_thread=240,
                                      seeds=(1,),
                                      workloads=("false-sharing-storm",))
        cells = spec.cells(settings)
        assert sorted({cell.num_cores for cell in cells}) == [2, 4]
        result = run_study(spec, settings, out_dir=tmp_path)
        assert result.report.simulated == 2
        payload = json.loads((tmp_path / "scaling.json").read_text())
        assert [t["name"] for t in payload["tables"]] == [
            "throughput_scaling", "stall_attribution"]

    def test_unknown_metric_rejected(self):
        assert "throughput_ikc" in METRICS
        spec = StudySpec(
            name="bad-metric", title="", configs=("sc",),
            build=lambda ctx: ctx.mean_metric("bogus", "sc", "barnes"),
            tabulate=lambda result: [])
        with pytest.raises(StudyError):
            run_study(spec, TINY)


class TestOverlayRegistry:
    def test_extras_resolve_and_parent_stays_live(self):
        overlay = overlay_registry(
            DEFAULT_REGISTRY,
            {"test_overlay_cfg": DEFAULT_REGISTRY.factory("sc")})
        assert "test_overlay_cfg" in overlay
        assert "sc" in overlay
        assert "test_overlay_cfg" not in DEFAULT_REGISTRY
        DEFAULT_REGISTRY.register("test_live_cfg",
                                  DEFAULT_REGISTRY.factory("sc"))
        try:
            assert "test_live_cfg" in overlay  # parent lookups are live
        finally:
            DEFAULT_REGISTRY.unregister("test_live_cfg")

    def test_conflicting_factory_rejected(self):
        with pytest.raises(StudyError):
            overlay_registry(DEFAULT_REGISTRY,
                             {"sc": DEFAULT_REGISTRY.factory("tso")})

    def test_identical_factory_is_noop(self):
        overlay = overlay_registry(DEFAULT_REGISTRY,
                                   {"sc": DEFAULT_REGISTRY.factory("sc")})
        assert overlay is DEFAULT_REGISTRY


class TestStudyTable:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            StudyTable("bad", ("a", "b"), [[1]])


class TestStudyCLI:
    def test_list_shows_every_registered_study(self, capsys):
        assert main(["study", "list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_STUDIES:
            assert name in out

    def test_run_cold_then_cached_with_artifacts(self, capsys, tmp_path):
        args = ["study", "run", "figure1", "--cores", "2", "--ops", "300",
                "--workloads", "barnes",
                "--cache", str(tmp_path / "cache"),
                "--out-dir", str(tmp_path / "artifacts")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "3 cells across 1 studies -> 3 unique jobs" in out
        assert "Figure 1" in out
        assert "3 simulated, 0 cache hits" in out
        assert (tmp_path / "artifacts" / "figure1.json").exists()
        assert (tmp_path / "artifacts" / "figure1.csv").exists()

        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 simulated, 3 cache hits" in out

    def test_run_multiple_studies_one_plan(self, capsys, tmp_path):
        args = ["study", "run", "figure1", "figure9", "--cores", "2",
                "--ops", "300", "--workloads", "barnes",
                "--cache", str(tmp_path / "cache"),
                "--out-dir", str(tmp_path / "artifacts")]
        assert main(args) == 0
        out = capsys.readouterr().out
        # figure1's grid is a subset of figure9's: 3 + 6 cells -> 6 jobs.
        assert "9 cells across 2 studies -> 6 unique jobs" in out
        assert (tmp_path / "artifacts" / "figure9.csv").exists()

    def test_run_without_names_rejected(self, capsys):
        assert main(["study", "run"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_unknown_study_rejected(self, capsys):
        assert main(["study", "run", "figure99"]) == 2
        assert "unknown study" in capsys.readouterr().err
