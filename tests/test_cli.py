"""Tests for the command-line interface."""

import json
import re

import pytest

from repro import cli
from repro.cli import main

#: The directory alias of ``--cache`` that was retired; ``--cache PATH``
#: takes a bare directory.  Spelled in two parts so that searching the
#: tree for the flag finds no live use of it.
RETIRED_ALIAS = "--cache" + "-dir"


class TestSimulateCommand:
    def test_simulate_prints_summary(self, capsys):
        code = main(["simulate", "--workload", "barnes", "--config", "invisi_sc",
                     "--cores", "2", "--ops", "400", "--seed", "3",
                     "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "simulation summary" in out
        assert "speedup vs sc" in out
        assert "violation" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "doom"])

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--config", "bogus"])


class TestEngineFlag:
    @pytest.mark.parametrize("argv", (
        ["simulate"],
        ["figure", "8"],
        ["sweep", "--quick"],
        ["study", "run", "figure1", "--quick"],
        ["scenario", "run", "false-sharing-storm", "--small"],
        ["worker", "figure1", "--quick"],
    ), ids=lambda argv: argv[0])
    def test_campaign_commands_reject_engine_exit_2(self, argv, capsys):
        """Campaigns always run the fast engine; they take no ``--engine``."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--engine", "fast"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_profile_retired_batch_engine_exits_2(self, capsys):
        """``profile`` offers only fast|reference."""
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "sc", "apache", "--small", "--engine", "batch"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'batch'" in capsys.readouterr().err


class TestCampaignCommandsShareOneCache:
    CELL = ["--workload", "apache", "--cores", "2", "--ops", "400"]

    def test_sweep_and_simulate_read_the_study_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["study", "run", "figure8", "--quick", "--cache", cache,
                     "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert main(["sweep", "--configs",
                     "sc,tso,rmo,invisi_sc,invisi_tso,invisi_rmo",
                     "--workloads", "apache,barnes", "--cores", "2",
                     "--ops", "400", "--cache", cache]) == 0
        assert "0 simulated, 12 cache hits" in capsys.readouterr().out
        assert main(["simulate", "--config", "invisi_sc", *self.CELL,
                     "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "[plan] 2 cells across 1 studies -> 2 unique jobs" in out
        assert "0 simulated, 2 cache hits" in out

    def test_simulate_telemetry_is_campaign_telemetry(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", "invisi_sc", *self.CELL,
                     "--no-cache", "--telemetry"]) == 0
        assert not (tmp_path / "results").exists()
        payload = json.loads((tmp_path / "telemetry.json").read_text())
        assert payload["counters"]["campaign.jobs"] == 2
        assert payload["spans"]["job"]["count"] == 2
        assert not [name for name in payload["counters"]
                    if name.startswith("engine.")]

    def test_deduplicated_counts_the_cells_the_plan_folds(self, tmp_path):
        """figure8 and figure9 share all 12 cells: 24 fold into 12."""
        out = tmp_path / "out"
        assert main(["-q", "study", "run", "figure8", "figure9", "--quick",
                     "--no-cache", "--telemetry", "--out-dir", str(out)]) == 0
        counters = json.loads((out / "telemetry.json").read_text())["counters"]
        assert counters["campaign.jobs"] == 12
        assert counters["campaign.deduplicated"] == 12


class TestCacheFlag:
    @pytest.mark.parametrize("argv", (
        ["simulate"],
        ["figure", "8"],
        ["sweep", "--quick"],
        ["study", "run", "figure1", "--quick"],
        ["scenario", "run", "false-sharing-storm", "--small"],
        ["worker", "figure1", "--quick"],
    ), ids=lambda argv: argv[0])
    def test_retired_cache_dir_exits_2(self, argv, capsys, tmp_path):
        """Every campaign command rejects the retired alias."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [RETIRED_ALIAS, str(tmp_path / "cache")])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {RETIRED_ALIAS}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv", (
        ["simulate", "--cores", "2", "--ops", "200"],
        ["worker", "figure1", "--quick", "--worker-id", "w1"],
    ), ids=lambda argv: argv[0])
    def test_closes_every_sqlite_connection_it_opens(
            self, argv, tmp_path, sqlite_connections, capsys):
        """The two ways the CLI opens a backend both close it."""
        opened, closed = sqlite_connections
        url = f"sqlite://{tmp_path}/c.sqlite"
        assert main(argv + ["--cache", url]) == 0
        assert opened, "the command opened no sqlite connection"
        assert {id(conn) for conn in closed} == {id(conn) for conn in opened}


class TestFigureCommand:
    def test_figure_1_runs_at_tiny_scale(self, capsys):
        code = main(["figure", "1", "--cores", "2", "--ops", "300",
                     "--workloads", "barnes", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 1" in out
        assert "barnes" in out

    def test_figure_10_runs_at_tiny_scale(self, capsys):
        code = main(["figure", "10", "--cores", "2", "--ops", "300",
                     "--workloads", "barnes", "--seeds", "1", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 10" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "3"])


class TestSingleFrontDoor:
    @pytest.mark.parametrize("number", ("1", "8", "10"))
    def test_figure_prints_the_study_run_table(self, number, capsys,
                                               tmp_path):
        """``figure N`` runs the registered ``figureN`` study's plan."""
        flags = ["--cores", "2", "--ops", "300", "--workloads", "barnes",
                 "--no-cache"]
        assert main(["-q", "figure", number] + flags) == 0
        figure = capsys.readouterr().out
        assert main(["-q", "study", "run", f"figure{number}", "--out-dir",
                     str(tmp_path)] + flags) == 0
        study = capsys.readouterr().out
        assert f"Figure {number}" in figure
        assert figure.strip() == study.strip()


class TestEmptyListFlags:
    @pytest.mark.parametrize("command", (
        "study run ablation-sb --quick --seeds ,",
        "study run figure8 --quick --seeds ,",
        "figure 8 --seeds ,",
        "figure scaling --core-counts ,",
        "study run figure8 --quick --workloads ,",
        "sweep --quick --seeds ,",
        "sweep --quick --configs ,",
        "scenario run false-sharing-storm --small --configs ,",
        "worker figure8 --quick --seeds ,",
    ))
    def test_empty_list_exits_2(self, command, capsys, tmp_path):
        """An empty list is a usage error, not a crash or an empty run."""
        argv = command.split()
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--cache", str(tmp_path / "cache")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert (f"argument {argv[-2]}: expected a non-empty comma-separated "
                f"list") in err
        assert "Traceback" not in err


class TestSweepCommand:
    def test_quick_sweep_populates_cache_then_hits(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        code = main(["sweep", "--quick", "--jobs", "2", "--cache", cache])
        out = capsys.readouterr().out
        assert code == 0
        assert "Campaign sweep" in out
        assert "2 simulated, 0 cache hits" in out

        code = main(["sweep", "--quick", "--jobs", "2", "--cache", cache])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 simulated, 2 cache hits" in out

    def test_no_cache_always_simulates(self, capsys):
        for _ in range(2):
            code = main(["sweep", "--quick", "--no-cache"])
            out = capsys.readouterr().out
            assert code == 0
            assert "2 simulated, 0 cache hits (no cache)" in out

    def test_explicit_cells(self, capsys, tmp_path):
        code = main(["sweep", "--configs", "sc,tso", "--workloads", "barnes",
                     "--seeds", "1,2", "--cores", "2", "--ops", "300",
                     "--cache", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 cells" in out
        assert out.count("tso") >= 2

    def test_unknown_config_rejected(self, capsys, tmp_path):
        code = main(["sweep", "--configs", "bogus", "--quick",
                     "--cache", str(tmp_path / "cache")])
        assert code == 2
        assert "unknown configuration 'bogus'" in capsys.readouterr().err

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--quick", "--jobs", "0"])


class TestFigureCampaignFlags:
    def test_figure_with_jobs_and_cache(self, capsys, tmp_path):
        args = ["figure", "1", "--cores", "2", "--ops", "300",
                "--workloads", "barnes", "--jobs", "2",
                "--cache", str(tmp_path / "cache")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "3 simulated, 0 cache hits" in out

        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 simulated, 3 cache hits" in out
        assert "Figure 1" in out


class TestTablesCommand:
    def test_tables_print_all_descriptive_figures(self, capsys):
        code = main(["tables"])
        out = capsys.readouterr().out
        assert code == 0
        for token in ("Figure 2", "Figure 4", "Figure 5", "Figure 6", "Figure 7"):
            assert token in out


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_removed_bench_subcommand_exits_2(self, capsys):
        """No alias is left behind: ``perfbench/`` is the only timer."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_module_docstring_lists_every_subcommand(self, capsys):
        """The docstring's count and its one example per subcommand."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        usage = capsys.readouterr().out
        commands = re.search(r"\{([a-z,]+)\}", usage).group(1).split(",")
        examples = re.findall(r"^ {4}python -m repro ([a-z]+)", cli.__doc__,
                              flags=re.MULTILINE)
        assert sorted(examples) == sorted(commands)
        words = ("zero one two three four five six seven eight nine ten "
                 "eleven twelve").split()
        assert cli.__doc__.split("\n")[2].lower().startswith(
            f"{words[len(commands)]} subcommands")
