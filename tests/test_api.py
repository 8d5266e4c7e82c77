"""The public API facade and the unified campaign CLI flags."""

import inspect
from urllib.parse import urlencode

import pytest

import repro
import repro.api
from repro import (
    ConsistencyModel,
    PlanExecution,
    build_trace,
    execute_plan,
    open_cache,
    run_study,
    simulate,
    small_config,
)
from repro.campaign import DirectoryBackend, SqliteBackend
from repro.cli import main
from repro.errors import StudyError
from repro.experiments.common import ExperimentSettings

QUICK = ExperimentSettings.quick(num_cores=2, ops_per_thread=200,
                                 workloads=("apache",))


class TestFacadeSurface:
    def test_all_exports_resolve(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is getattr(repro, name)

    def test_blessed_entry_points_exported(self):
        assert {"simulate", "run_study", "execute_plan",
                "open_cache"} <= set(repro.api.__all__)
        assert set(repro.api.__all__) <= set(repro.__all__)


class TestOpenCache:
    def test_none_is_default_directory_cache(self):
        cache = open_cache()
        assert isinstance(cache, DirectoryBackend)
        assert cache.label == "dir:results/cache"

    def test_url_and_path_forms(self, tmp_path):
        assert open_cache(str(tmp_path / "c")).label == f"dir:{tmp_path}/c"
        assert open_cache(f"sqlite://{tmp_path}/c.sqlite").label == \
            f"sqlite:{tmp_path}/c.sqlite"

    def test_passthrough(self, tmp_path):
        for backend in (DirectoryBackend(tmp_path / "c"),
                        SqliteBackend(tmp_path / "c.sqlite")):
            assert open_cache(backend) is backend


class TestSimulate:
    def test_trace_mode_matches_engine_simulate(self):
        from repro.engine.simulator import simulate as engine_simulate

        trace = build_trace("apache", num_threads=4, ops_per_thread=200,
                            seed=1)
        config = small_config(ConsistencyModel.SC)
        assert simulate(config, trace).to_dict() == \
            engine_simulate(config, trace).to_dict()

    def test_name_mode_is_deterministic(self):
        first = simulate("sc", "apache", cores=2, ops=200, seed=1)
        again = simulate("sc", "apache", cores=2, ops=200, seed=1)
        assert first.to_dict() == again.to_dict()

    def test_config_name_with_prebuilt_trace(self):
        trace = build_trace("apache", num_threads=2, ops_per_thread=200,
                            seed=1)
        result = simulate("sc", trace)
        assert result.to_dict() == simulate("sc", trace).to_dict()

    def test_scenario_names_accepted(self):
        result = simulate("sc", "false-sharing-storm", cores=2, ops=200)
        assert result.cycles_per_core() > 0

    def test_has_no_cache_parameter(self):
        """Named cells reach the result cache only through the runner."""
        assert "cache" not in inspect.signature(simulate).parameters


class TestRunStudyAndExecutePlan:
    def test_execute_plan_matches_run_study(self, tmp_path):
        direct = run_study("figure1", QUICK,
                           cache=str(tmp_path / "cache-a"))
        execution = execute_plan("figure1", QUICK,
                                 cache=str(tmp_path / "cache-b"))
        assert isinstance(execution, PlanExecution)
        assert execution.names() == ("figure1",)
        assert execution.result("figure1").format() == direct.format()

    def test_execute_plan_report_and_memoized_results(self, tmp_path):
        execution = execute_plan(["figure1"], QUICK,
                                 cache=str(tmp_path / "cache"))
        assert execution.report.simulated == len(execution.plan.unique_cells)
        assert execution.result("figure1") is execution.result("figure1")
        assert "figure1" in execution.results()
        assert "unique jobs" in execution.describe()

    def test_result_of_a_study_not_in_the_plan_names_the_plan(self,
                                                              tmp_path):
        execution = execute_plan(["figure1"], QUICK,
                                 cache=str(tmp_path / "cache"))
        with pytest.raises(StudyError,
                           match="'figure8' is not in this plan.*figure1"):
            execution.result("figure8")

    def test_execute_plan_deduplicates_across_studies(self, tmp_path):
        execution = execute_plan(["figure8", "figure9"], QUICK,
                                 cache=str(tmp_path / "cache"))
        assert execution.plan.deduplicated > 0
        assert execution.report.simulated == len(execution.plan.unique_cells)


def _ids(connections):
    return {id(conn) for conn in connections}


class TestCacheLifetime:
    """The facade closes every sqlite connection it opens from a URL."""

    def test_run_study_closes_the_backend_it_opens(self, tmp_path,
                                                   sqlite_connections):
        opened, closed = sqlite_connections
        run_study("figure1", QUICK, cache=f"sqlite://{tmp_path}/c.sqlite")
        assert opened, "run_study opened no sqlite connection"
        assert _ids(closed) == _ids(opened)

    def test_execution_closes_the_backend_execute_plan_opens(
            self, tmp_path, sqlite_connections):
        opened, closed = sqlite_connections
        url = f"sqlite://{tmp_path}/c.sqlite"
        with execute_plan(["figure1"], QUICK, cache=url) as execution:
            table = execution.result("figure1").format()
        assert opened, "execute_plan opened no sqlite connection"
        assert _ids(closed) == _ids(opened)
        # Every cell is memoized: results stay readable, with no reopen.
        assert execution.result("figure1").format() == table
        assert len(opened) == len(closed)

    @staticmethod
    def _failing_put(monkeypatch):
        """Make every cache write fail, after a lookup opened the
        connection."""
        def put(self, key, result):
            raise OSError("disk full")

        monkeypatch.setattr(SqliteBackend, "put", put)

    def test_run_study_closes_the_backend_when_the_study_fails(
            self, tmp_path, sqlite_connections, monkeypatch):
        opened, closed = sqlite_connections
        self._failing_put(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            run_study("figure1", QUICK, cache=f"sqlite://{tmp_path}/c.sqlite")
        assert opened, "run_study opened no sqlite connection"
        assert _ids(closed) == _ids(opened)

    def test_execute_plan_closes_the_backend_when_the_plan_fails(
            self, tmp_path, sqlite_connections, monkeypatch):
        opened, closed = sqlite_connections
        self._failing_put(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            execute_plan(["figure1"], QUICK,
                         cache=f"sqlite://{tmp_path}/c.sqlite")
        assert opened, "execute_plan opened no sqlite connection"
        assert _ids(closed) == _ids(opened)

    def test_closing_an_execution_twice_is_harmless(self, tmp_path,
                                                    sqlite_connections):
        opened, closed = sqlite_connections
        with execute_plan(["figure1"], QUICK,
                          cache=f"sqlite://{tmp_path}/c.sqlite") as execution:
            execution.close()
        execution.close()
        assert opened and _ids(closed) == _ids(opened)
        assert len(closed) == len(opened)

    def test_a_backend_the_caller_passes_stays_open(self, tmp_path,
                                                    sqlite_connections):
        opened, closed = sqlite_connections
        backend = open_cache(f"sqlite://{tmp_path}/c.sqlite")
        run_study("figure1", QUICK, cache=backend)
        with execute_plan(["figure1"], QUICK, cache=backend):
            pass
        assert opened and not closed
        backend.close()
        assert _ids(closed) == _ids(opened)


class TestUnifiedCliFlags:
    CAMPAIGN_COMMANDS = (
        ["simulate", "--cores", "2", "--ops", "200"],
        ["figure", "8", "--cores", "2", "--ops", "200"],
        ["sweep", "--quick"],
        ["study", "run", "figure1", "--quick"],
        ["scenario", "run", "false-sharing-storm", "--small"],
        ["worker", "figure1", "--quick"],
    )

    def test_every_campaign_command_accepts_the_shared_flags(self, capsys):
        """The parent parser gives each subcommand the identical set."""
        from repro.cli import _build_parser

        parser = _build_parser()
        for argv in self.CAMPAIGN_COMMANDS:
            args = parser.parse_args(argv + ["--jobs", "2", "--no-cache",
                                             "--telemetry"])
            assert args.jobs == 2 and args.no_cache and args.telemetry
            assert args.cache is None
            assert not hasattr(args, "engine")

    def test_cache_url_flag_sqlite(self, tmp_path, capsys):
        url = f"sqlite://{tmp_path}/c.sqlite"
        assert main(["sweep", "--quick", "--cache", url]) == 0
        capsys.readouterr()
        assert main(["sweep", "--quick", "--cache", url]) == 0
        out = capsys.readouterr().out
        assert "0 simulated, 2 cache hits" in out
        assert f"sqlite:{tmp_path}/c.sqlite" in out

    def test_worker_requires_a_cache(self):
        assert main(["worker", "figure1", "--quick", "--no-cache"]) == 2

    def test_worker_then_study_run_is_fully_cached(self, tmp_path, capsys):
        url = f"sqlite://{tmp_path}/queue.sqlite"
        assert main(["worker", "figure1", "--quick", "--cache", url,
                     "--worker-id", "w1"]) == 0
        out = capsys.readouterr().out
        assert "[worker w1]" in out
        assert main(["study", "run", "figure1", "--quick", "--cache", url,
                     "--out-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "0 simulated, 6 cache hits" in out

    def test_cache_url_with_query_rejected(self, tmp_path, capsys):
        url = f"sqlite://{tmp_path}/q.sqlite?{urlencode({'shards': 2})}"
        assert main(["worker", "figure1", "--quick", "--cache", url]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(url) in err
