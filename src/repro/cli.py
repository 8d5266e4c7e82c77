"""Command-line interface.

Nine subcommands cover the common entry points without writing any code::

    python -m repro simulate --workload apache --config invisi_sc --cores 8
    python -m repro figure 8 --cores 8 --ops 4000 --jobs 4
    python -m repro study run figure8 scaling --jobs 4
    python -m repro worker figure8 --cache sqlite://results/queue.sqlite
    python -m repro sweep --configs sc,invisi_sc --workloads apache --jobs 4
    python -m repro workloads list
    python -m repro scenario run false-sharing-storm --jobs 4
    python -m repro profile invisi_sc false-sharing-storm --trace-out trace.json
    python -m repro tables

Global ``-q/--quiet`` suppresses progress lines (``[campaign]``,
``[artifacts]``, ...) leaving only primary results; ``-v/--verbose``
adds diagnostic detail.

``simulate`` runs one workload (or scenario) under one named machine
configuration and a baseline configuration, and prints the runtime
breakdown and the speedup; ``figure`` regenerates one
of the paper's evaluation figures (1, 8, 9, 10, 11, 12), the ``scenarios``
per-phase figure, or the ``scaling`` machine-scaling study (a
core-count sweep from 4 to 64 cores -- ``--core-counts`` overrides,
``--small`` is the CI smoke preset) at the requested scale, running the
study through the same plan as ``study run`` without writing artifacts;
``tables`` prints the descriptive tables (Figures 2, 4, 5, 6, 7).

``study list`` prints the registered declarative studies (see
``EXPERIMENTS.md``); ``study run <name>... [--all]`` compiles the named
studies (or every study) into **one** deduplicated campaign plan, executes
it through one study runner and its result cache, prints each study's
text table, and
writes per-study JSON + CSV artifacts under ``results/`` (``--out-dir``
overrides).  ``--quick`` is the CI smoke preset (2 cores, 400 ops,
apache+barnes).

``workloads list`` and ``scenario list`` print the registered workload
presets and phase-structured scenarios.  ``scenario run <name>`` executes
one scenario under one or more configurations and prints each
configuration's per-phase stall breakdown; a
scenario name is likewise accepted anywhere ``sweep``/``simulate`` accept
a workload preset.

``sweep`` runs an arbitrary (configuration x workload x seed) campaign:
``--configs``/``--workloads``/``--seeds`` pick the cross-product (default:
every registered configuration and workload), ``--jobs N`` simulates
missing cells on a pool of N worker processes, and completed cells are
persisted in a content-addressed result cache so a repeated sweep -- or a
later ``figure`` run over the same cells -- simulates nothing.

``simulate``, ``sweep`` and ``scenario run`` build an ad-hoc study spec
next to their command; it and ``figure``/``study run`` all run through
:func:`_run_plan`, the one way this module runs cells, so every campaign
command shares one result cache and prints the same ``[plan]`` and
``[campaign]`` lines.  Campaigns always run the fast engine; ``profile``
is the command that picks an engine.

Every campaign-driving subcommand (``simulate``, ``figure``, ``sweep``,
``study run``, ``scenario run``, ``worker``) accepts one identical flag
set, declared once in :func:`_campaign_parent`:
``--jobs``/``--no-cache``/``--cache URL``/``--telemetry``.
``--cache`` takes a backend URL -- ``dir://PATH`` (default,
``results/cache/``) or ``sqlite://FILE`` (safe for concurrent writers) --
or a bare directory path.  ``--no-cache`` disables caching, ``--quick``
is a small smoke-test preset for CI.

``worker`` is the distributed tier: each ``repro worker <studies...>
--cache URL`` process independently compiles the same deduplicated study
plan and drains whatever cells are still missing from the shared backend,
claiming cells via expiring lease records so no two live workers simulate
the same cell and a crashed worker's claims are re-issued.  Launch N
workers against one ``sqlite://`` URL (from different machines, a shared
filesystem suffices), then run ``study run`` with the same URL: it
simulates nothing and formats every table from the drained cache.

``profile`` runs one (configuration, workload-or-scenario) cell with the
telemetry recorder attached and prints the text profile (speculation
episodes, store-buffer stalls, coherence traffic); ``--trace-out``
additionally writes a Chrome trace-event JSON loadable in Perfetto
(https://ui.perfetto.dev), ``--telemetry-out`` a schema-versioned metrics
artifact.  The campaign commands accept ``--telemetry`` to record
campaign-level telemetry (per-job wall spans, cache tallies) and write
``telemetry.json``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .api import compile_study_plan, open_cache
from .campaign import CacheBackend, DEFAULT_CACHE_URL, DEFAULT_REGISTRY, QueueWorker
from .experiments import (
    ExperimentSettings,
    figure2_table,
    figure4_table,
    figure5_table,
    figure6_table,
    figure7_table,
    make_config,
    scaling_study,
    scenario_study,
    SCALING_CORE_COUNTS,
    SCALING_SCENARIOS,
)
from .engine.results import RunResult
from .engine.simulator import simulate
from .engine.system import ENGINE_KINDS
from .errors import ReproError
from .obs import (
    TraceRecorder,
    format_profile,
    write_chrome_trace,
    write_telemetry,
)
from .scenarios.registry import DEFAULT_SCENARIO_REGISTRY, scenario_names, scenario_spec
from .stats.phases import format_phase_breakdown
from .studies import (
    DEFAULT_STUDY_REGISTRY,
    StudyCell,
    StudyContext,
    StudySpec,
    run_study,
    write_artifacts,
)
from .stats.report import format_table
from .workloads.presets import WORKLOAD_PRESETS, workload_names
from .workloads.registry import build_trace

#: ``repro figure`` choices: a numbered figure runs the registered
#: ``figureN`` study; ``scenarios`` and ``scaling`` build their spec from
#: the command line.
_FIGURES = ("1", "8", "9", "10", "11", "12", "scaling", "scenarios")

#: Console verbosity: -1 with ``--quiet``, 0 by default, 1 with ``--verbose``.
_VERBOSITY = 0


def _set_verbosity(level: int) -> None:
    global _VERBOSITY
    _VERBOSITY = level


def _out(*parts: object) -> None:
    """Primary results (tables, figures): printed even under ``--quiet``."""
    print(*parts)


def _info(*parts: object) -> None:
    """Progress lines (``[campaign]``, ...): suppressed by ``--quiet``."""
    if _VERBOSITY >= 0:
        print(*parts)


def _debug(*parts: object) -> None:
    """Diagnostic detail: printed only with ``--verbose``."""
    if _VERBOSITY >= 1:
        print(*parts)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="InvisiFence (ISCA 2009) reproduction: simulate workloads "
                    "and regenerate the paper's figures.")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress lines; print only results")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print diagnostic detail")
    sub = parser.add_subparsers(dest="command", required=True)
    campaign = _campaign_parent()

    sim = sub.add_parser("simulate", parents=[campaign],
                         help="run one workload or scenario under one configuration")
    sim.add_argument("--workload",
                     choices=workload_names() + list(scenario_names()),
                     default="apache")
    sim.add_argument("--config", choices=list(DEFAULT_REGISTRY.names()),
                     default="invisi_sc")
    sim.add_argument("--baseline", choices=list(DEFAULT_REGISTRY.names()),
                     default="sc",
                     help="configuration to report a speedup against")
    sim.add_argument("--cores", type=int, default=8)
    sim.add_argument("--ops", type=int, default=4000, help="operations per thread")
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--warmup", type=float, default=0.2)

    fig = sub.add_parser("figure", parents=[campaign],
                         help="regenerate one of the paper's figures")
    fig.add_argument("number", choices=sorted(_FIGURES), help="figure number")
    fig.add_argument("--cores", type=int, default=None,
                     help="cores per simulated machine (default: 8; the "
                          "scaling figure uses --core-counts instead)")
    fig.add_argument("--ops", type=int, default=None,
                     help="operations per thread (default: 4000)")
    fig.add_argument("--seeds", type=_csv(int), default=(1,),
                     help="comma-separated generator seeds")
    fig.add_argument("--workloads", type=_csv(), default=None,
                     help="comma-separated workload names (default: all "
                          "presets; for the scenarios figure, all scenarios; "
                          "for the scaling figure, its default scenarios)")
    fig.add_argument("--core-counts", type=_csv(int), default=None,
                     help="scaling figure only: comma-separated machine "
                          "sizes to sweep (default: 4,8,16,32,64)")
    fig.add_argument("--small", action="store_true",
                     help="scaling figure only: CI smoke preset, 2 and 4 "
                          "cores at 400 ops (explicit flags override)")

    sweep = sub.add_parser(
        "sweep", parents=[campaign],
        help="run a (config x workload x seed) campaign, in parallel")
    sweep.add_argument("--configs", type=_csv(), default=None,
                       help="comma-separated configuration names "
                            "(default: all registered configurations)")
    sweep.add_argument("--workloads", type=_csv(), default=None,
                       help="comma-separated workload or scenario names "
                            "(default: all workload presets)")
    sweep.add_argument("--seeds", type=_csv(int), default=(1,),
                       help="comma-separated generator seeds")
    sweep.add_argument("--cores", type=int, default=None,
                       help="cores per simulated machine (default: 8)")
    sweep.add_argument("--ops", type=int, default=None,
                       help="operations per thread (default: 4000)")
    sweep.add_argument("--warmup", type=float, default=0.2)
    sweep.add_argument("--quick", action="store_true",
                       help="smoke-test preset: 2 cores, 400 ops, "
                            "sc+invisi_sc on apache (explicit flags override)")

    study = sub.add_parser(
        "study", help="list and run declarative studies "
                      "(one grid -> metrics -> artifacts pipeline)")
    study_sub = study.add_subparsers(dest="study_command", required=True)
    study_sub.add_parser("list", help="print registered studies and their grids")
    st_run = study_sub.add_parser(
        "run", parents=[campaign],
        help="run studies through one deduplicated campaign plan and "
             "write JSON + CSV artifacts")
    _add_study_selection_flags(st_run)
    st_run.add_argument("--out-dir", type=str, default="results",
                        help="artifact directory (default: results)")

    worker = sub.add_parser(
        "worker", parents=[campaign],
        help="drain one deduplicated study plan through a shared cache "
             "backend, cooperating with other workers via lease records")
    _add_study_selection_flags(worker)
    worker.add_argument("--worker-id", type=str, default=None,
                        help="lease-record identity (default: host-pid)")
    worker.add_argument("--lease-ttl", type=float, default=60.0,
                        help="seconds before a claimed cell is re-issued to "
                             "peers (default: 60)")
    worker.add_argument("--poll-interval", type=float, default=0.05,
                        help="seconds between polls of peers' live leases "
                             "(default: 0.05)")
    worker.add_argument("--max-wait", type=float, default=600.0,
                        help="seconds without progress before giving up "
                             "(default: 600)")

    wl = sub.add_parser("workloads", help="inspect the workload preset catalogue")
    wl_sub = wl.add_subparsers(dest="workloads_command", required=True)
    wl_sub.add_parser("list", help="print preset names and descriptions")

    scenario = sub.add_parser("scenario",
                              help="inspect and run phase-structured scenarios")
    sc_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    sc_sub.add_parser("list", help="print scenario names, phases, descriptions")
    sc_run = sc_sub.add_parser(
        "run", parents=[campaign],
        help="run one scenario under one or more configurations and "
             "print per-phase stall breakdowns")
    sc_run.add_argument("name", help="scenario name (see 'scenario list')")
    sc_run.add_argument("--configs", type=_csv(), default=("sc", "invisi_sc"),
                        help="comma-separated configuration names")
    sc_run.add_argument("--cores", type=int, default=None,
                        help="cores per simulated machine (default: 8)")
    sc_run.add_argument("--ops", type=int, default=None,
                        help="total operations per thread (default: 4000)")
    sc_run.add_argument("--seed", type=int, default=1)
    sc_run.add_argument("--warmup", type=float, default=0.2)
    sc_run.add_argument("--small", action="store_true",
                        help="smoke-test preset: 2 cores, 600 ops "
                             "(explicit flags override)")

    prof = sub.add_parser(
        "profile", help="run one cell with the telemetry recorder attached "
                        "and print/export its event profile")
    prof.add_argument("config", choices=list(DEFAULT_REGISTRY.names()),
                      help="configuration short-name")
    prof.add_argument("workload",
                      choices=workload_names() + list(scenario_names()),
                      help="workload preset or scenario name")
    prof.add_argument("--cores", type=_positive_int, default=None,
                      help="cores per simulated machine (default: 8)")
    prof.add_argument("--ops", type=_positive_int, default=None,
                      help="operations per thread (default: 4000)")
    prof.add_argument("--seed", type=int, default=1)
    prof.add_argument("--warmup", type=float, default=0.2)
    prof.add_argument("--engine", choices=list(ENGINE_KINDS), default="fast",
                      help="execution kernel to trace (default: fast)")
    prof.add_argument("--small", action="store_true",
                      help="CI smoke preset: 2 cores, 600 ops "
                           "(explicit flags override)")
    prof.add_argument("--trace-out", type=str, default=None, metavar="FILE",
                      help="write a Chrome trace-event JSON (open in "
                           "https://ui.perfetto.dev)")
    prof.add_argument("--telemetry-out", type=str, default=None, metavar="FILE",
                      help="write the schema-versioned telemetry JSON artifact")

    sub.add_parser("tables", help="print the descriptive tables (Figures 2, 4-7)")
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _csv(item: Callable[[str], object] = str) -> Callable[[str], tuple]:
    """The argparse type of every list flag: a non-empty comma-separated list.

    ``--seeds``, ``--core-counts``, ``--workloads`` and ``--configs`` all
    parse through it, so an empty list such as ``,`` exits 2 with a
    one-line ``argument --X: ...`` error instead of crashing or running
    nothing.
    """
    def parse(text: str) -> tuple:
        try:
            values = tuple(item(part) for part in text.split(",") if part)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {item.__name__} values, "
                f"got {text!r}")
        if not values:
            raise argparse.ArgumentTypeError(
                f"expected a non-empty comma-separated list, got {text!r}")
        return values
    return parse


def _campaign_parent() -> argparse.ArgumentParser:
    """The shared campaign flag set, as an argparse parent parser.

    Every campaign-driving subcommand (``simulate``, ``figure``,
    ``sweep``, ``study run``, ``scenario run``, ``worker``) inherits the
    identical flags from this one definition, so they cannot drift.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("campaign options")
    group.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes for missing cells (default: 1, serial)")
    group.add_argument("--no-cache", action="store_true",
                       help="do not read or write the on-disk result cache")
    group.add_argument("--cache", type=str, default=None, metavar="URL",
                       help="result cache URL: dir://PATH, sqlite://FILE, "
                            "or a bare directory path "
                            f"(default: {DEFAULT_CACHE_URL})")
    group.add_argument("--telemetry", action="store_true",
                       help="record campaign telemetry (per-job wall spans, "
                            "cache tallies) and write telemetry.json")
    return parent


def _open_cli_cache(args: argparse.Namespace) -> Optional[CacheBackend]:
    """Resolve the shared cache flags into a cache backend (or None)."""
    return None if args.no_cache else open_cache(args.cache)


def _add_study_selection_flags(parser: argparse.ArgumentParser) -> None:
    """Flags picking which studies to run, at what scale.

    Shared verbatim between ``study run`` and ``worker`` so both compile
    the *identical* deduplicated plan -- and therefore the identical
    content-addressed cache keys -- from the same command line.
    """
    parser.add_argument("names", nargs="*",
                        help="study names (see 'study list')")
    parser.add_argument("--all", action="store_true",
                        help="run every registered study")
    parser.add_argument("--cores", type=int, default=None,
                        help="cores per simulated machine (default: 8; "
                             "studies with a core-count axis sweep their own)")
    parser.add_argument("--ops", type=int, default=None,
                        help="operations per thread (default: 4000)")
    parser.add_argument("--seeds", type=_csv(int), default=(1,),
                        help="comma-separated generator seeds")
    parser.add_argument("--workloads", type=_csv(), default=None,
                        help="comma-separated workload names for studies "
                             "without a fixed workload axis (default: all "
                             "presets)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test preset: 2 cores, 400 ops, "
                             "apache+barnes (explicit flags override)")


def _study_selection(args: argparse.Namespace):
    """Resolve study-selection flags into (specs, settings)."""
    if args.all:
        specs = DEFAULT_STUDY_REGISTRY.specs()
    else:
        if not args.names:
            raise ReproError("name at least one study or pass --all "
                             "(see 'repro study list')")
        names = dict.fromkeys(args.names)  # dedupe, preserving order
        specs = tuple(DEFAULT_STUDY_REGISTRY.get(name) for name in names)
    cores = args.cores if args.cores is not None else (2 if args.quick else 8)
    ops = args.ops if args.ops is not None else (400 if args.quick else 4000)
    workloads = args.workloads or (
        ("apache", "barnes") if args.quick else tuple(workload_names()))
    settings = ExperimentSettings(num_cores=cores, ops_per_thread=ops,
                                  seeds=args.seeds, workloads=workloads)
    return specs, settings


def _campaign_recorder(args: argparse.Namespace,
                       command: str) -> Optional[TraceRecorder]:
    """A :class:`TraceRecorder` when ``--telemetry`` was passed, else None."""
    if not getattr(args, "telemetry", False):
        return None
    rec = TraceRecorder()
    rec.meta.update({"command": command, "jobs": args.jobs})
    return rec


def _write_campaign_telemetry(rec: Optional[TraceRecorder],
                              out_dir: Optional[str] = None) -> None:
    """Write ``telemetry.json`` for a campaign command's recorder."""
    if rec is None:
        return
    path = write_telemetry(rec, Path(out_dir or ".") / "telemetry.json")
    _info(f"[telemetry] wrote {path}")


def _print_catalog(title: str, headers: List[str], rows: List[List[str]]) -> None:
    """Shared catalogue formatter for ``workloads list``/``scenario list``."""
    _out(format_table(headers, rows, title=title))


def _grid_results(ctx: StudyContext) -> List[Tuple[StudyCell, RunResult]]:
    """An ad-hoc spec's result: every grid cell with its run, in grid order."""
    return [(cell, ctx.study_runner.result(cell))
            for cell in ctx.spec.cells(ctx.settings)]


def _adhoc_spec(name: str, configs: Iterable[str]) -> StudySpec:
    """A command's own grid, run through the plan like any study.

    Its workloads and seeds are the settings'.  It is not registered, and
    it has no tables, so it writes no artifacts.
    """
    return StudySpec(name=name, title=f"ad-hoc {name} grid",
                     configs=tuple(configs), build=_grid_results,
                     tabulate=lambda result: [])


def _cmd_simulate(args: argparse.Namespace) -> int:
    settings = ExperimentSettings(num_cores=args.cores,
                                  ops_per_thread=args.ops,
                                  seeds=(args.seed,),
                                  workloads=(args.workload,),
                                  warmup_fraction=args.warmup)
    spec = _adhoc_spec("simulate", (args.config, args.baseline))

    def show(results: list) -> None:
        (cells,) = results
        (_, result), (_, baseline) = cells
        breakdown = result.breakdown(normalize=True)
        stats = result.aggregate()
        rows = [
            ["workload", args.workload],
            ["configuration", args.config],
            ["cycles per core", f"{result.cycles_per_core():.0f}"],
            [f"speedup vs {args.baseline}",
             f"{result.speedup_over(baseline):.2f}x"],
            ["busy", f"{100 * breakdown['busy']:.1f}%"],
            ["other (plain misses)", f"{100 * breakdown['other']:.1f}%"],
            ["SB full", f"{100 * breakdown['sb_full']:.1f}%"],
            ["SB drain", f"{100 * breakdown['sb_drain']:.1f}%"],
            ["violation", f"{100 * breakdown['violation']:.1f}%"],
            ["speculation episodes", str(stats.speculations)],
            ["commits / aborts", f"{stats.commits} / {stats.aborts}"],
            ["time speculating", f"{100 * result.speculation_fraction():.1f}%"],
        ]
        _out(format_table(["metric", "value"], rows,
                          title="InvisiFence reproduction: simulation summary"))
        if result.phase_stats:
            _out("")
            _out(format_phase_breakdown(result))

    return _run_plan(args, "simulate", (spec,), settings, show)


def _cmd_study(args: argparse.Namespace) -> int:
    if args.study_command == "list":
        settings = ExperimentSettings()
        rows = [[spec.name, spec.describe_grid(settings), spec.title]
                for spec in DEFAULT_STUDY_REGISTRY.specs()]
        _print_catalog("Studies (declarative grid -> metrics -> artifacts)",
                       ["name", "grid @ default scale", "description"], rows)
        return 0
    return _cmd_study_run(args)


def _run_plan(args: argparse.Namespace, command: str,
              specs: Sequence[StudySpec], settings: ExperimentSettings,
              show: Callable[[list], None],
              out_dir: Optional[str] = None) -> int:
    """Run ``specs`` through one deduplicated plan: how the CLI runs cells.

    Every campaign command but ``worker`` comes through here, so shared
    cells (e.g. the sc baseline) are simulated once and every command
    reads and writes the same result cache.  Prints the ``[plan]`` line,
    hands each study's result object (in ``specs`` order) to ``show``,
    then prints the ``[campaign]`` line and writes the telemetry.
    """
    cache = _open_cli_cache(args)
    try:
        rec = _campaign_recorder(args, command)
        plan = compile_study_plan(specs, settings)
        if rec is not None:
            rec.meta["studies"] = ",".join(spec.name for spec in specs)
        study_runner = plan.runner(jobs=args.jobs, cache=cache, recorder=rec)
        start = time.perf_counter()
        report = plan.execute(study_runner)
        elapsed = time.perf_counter() - start
        _info(f"[plan] {plan.describe()}")
        _debug(f"[plan] settings: {settings}")
        show([run_study(spec, settings, study_runner=study_runner)
              for spec in specs])
        _info(f"[campaign] {report.describe(cache)} in {elapsed:.1f}s, "
              f"--jobs {args.jobs}")
    finally:
        if cache is not None:
            cache.close()
    _write_campaign_telemetry(rec, out_dir)
    return 0


def _cmd_study_run(args: argparse.Namespace) -> int:
    specs, settings = _study_selection(args)

    def show(results: list) -> None:
        for spec, result in zip(specs, results):
            _out("")
            _out(result.format())
            json_path, csv_path = write_artifacts(spec, settings,
                                                  spec.tabulate(result),
                                                  args.out_dir)
            _info(f"[artifacts] wrote {json_path} and {csv_path}")
        _info("")

    return _run_plan(args, "study run", specs, settings, show,
                     out_dir=args.out_dir)


def _cmd_worker(args: argparse.Namespace) -> int:
    specs, settings = _study_selection(args)
    cache = _open_cli_cache(args)
    if cache is None:
        raise ReproError("worker coordinates through the shared cache; "
                         "pass --cache URL (e.g. sqlite://results/queue.sqlite) "
                         "instead of --no-cache")
    with cache:
        plan = compile_study_plan(specs, settings)
        rec = _campaign_recorder(args, "worker")
        if rec is not None:
            rec.meta["studies"] = ",".join(spec.name for spec in specs)
        worker = QueueWorker(plan, cache, worker_id=args.worker_id,
                             lease_ttl=args.lease_ttl,
                             poll_interval=args.poll_interval,
                             max_wait=args.max_wait, recorder=rec)
        _info(f"[worker {worker.worker_id}] draining {plan.describe()} "
              f"via {cache.label}")
        report = worker.drain()
    _out(f"[worker {worker.worker_id}] {report.describe()}")
    _write_campaign_telemetry(rec)
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    rows = [[name, WORKLOAD_PRESETS[name].description]
            for name in workload_names()]
    _print_catalog("Workload presets", ["name", "description"], rows)
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.scenario_command == "list":
        rows = [[info["name"], info["phases"], info["description"]]
                for info in DEFAULT_SCENARIO_REGISTRY.describe_all()]
        _print_catalog("Scenarios (phase-structured workloads)",
                       ["name", "phases", "description"], rows)
        return 0
    return _cmd_scenario_run(args)


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    scenario = scenario_spec(args.name)
    cores = args.cores if args.cores is not None else (2 if args.small else 8)
    ops = args.ops if args.ops is not None else (600 if args.small else 4000)
    settings = ExperimentSettings(num_cores=cores, ops_per_thread=ops,
                                  seeds=(args.seed,), workloads=(args.name,),
                                  warmup_fraction=args.warmup)
    spec = _adhoc_spec("scenario", args.configs)

    def show(results: list) -> None:
        (cells,) = results
        _out(f"Scenario {scenario.name}: {scenario.description}")
        _out(f"phases: {' -> '.join(p.name for p in scenario.phases)} "
             f"({ops} ops/thread total, {cores} cores, seed {args.seed})")
        for cell, result in cells:
            _out("")
            _out(format_phase_breakdown(
                result, title=f"{args.name} under {cell.config_name}: "
                              f"per-phase stall breakdown (% of phase cycles)"))
        _info("")

    return _run_plan(args, "scenario run", (spec,), settings, show)


def _figure_selection(args: argparse.Namespace):
    """Resolve ``figure`` flags into (spec, settings)."""
    if args.number == "scaling":
        return _scaling_selection(args)
    if args.workloads:
        workloads = args.workloads
    elif args.number == "scenarios":
        workloads = tuple(scenario_names())
    else:
        workloads = tuple(workload_names())
    settings = ExperimentSettings(
        num_cores=args.cores if args.cores is not None else 8,
        ops_per_thread=args.ops if args.ops is not None else 4000,
        seeds=args.seeds, workloads=workloads)
    if args.number == "scenarios":
        return scenario_study(scenarios=None), settings
    return DEFAULT_STUDY_REGISTRY.get(f"figure{args.number}"), settings


def _scaling_selection(args: argparse.Namespace):
    """The machine-scaling study sweeps core counts, not a single machine."""
    if args.cores is not None:
        raise ReproError(
            "the scaling figure sweeps machine sizes; use --core-counts "
            "(e.g. --core-counts 4,16,64) instead of --cores")
    core_counts = args.core_counts or (
        (2, 4) if args.small else SCALING_CORE_COUNTS)
    ops = args.ops if args.ops is not None else (400 if args.small else 4000)
    scenarios = args.workloads or (
        ("false-sharing-storm",) if args.small else SCALING_SCENARIOS)
    settings = ExperimentSettings(num_cores=max(core_counts),
                                  ops_per_thread=ops, seeds=args.seeds,
                                  workloads=scenarios)
    return scaling_study(core_counts, scenarios=scenarios), settings


def _cmd_figure(args: argparse.Namespace) -> int:
    spec, settings = _figure_selection(args)
    return _run_plan(args, f"figure {args.number}", (spec,), settings,
                     lambda results: _out(results[0].format()))


def _cmd_sweep(args: argparse.Namespace) -> int:
    configs = args.configs or (
        ("sc", "invisi_sc") if args.quick else DEFAULT_REGISTRY.names())
    workloads = args.workloads or (
        ("apache",) if args.quick else tuple(workload_names()))
    cores = args.cores if args.cores is not None else (2 if args.quick else 8)
    ops = args.ops if args.ops is not None else (400 if args.quick else 4000)
    settings = ExperimentSettings(num_cores=cores, ops_per_thread=ops,
                                  seeds=args.seeds, workloads=workloads,
                                  warmup_fraction=args.warmup)
    spec = _adhoc_spec("sweep", configs)

    def show(results: list) -> None:
        (cells,) = results
        rows = [[cell.config_name, cell.workload, str(cell.seed),
                 f"{result.cycles_per_core():.0f}", str(result.runtime)]
                for cell, result in cells]
        _out(format_table(["config", "workload", "seed", "cycles/core",
                           "runtime"], rows,
                          title=f"Campaign sweep: {len(cells)} cells at "
                                f"{cores} cores, {ops} ops/thread"))

    return _run_plan(args, "sweep", (spec,), settings, show)


def _cmd_profile(args: argparse.Namespace) -> int:
    cores = args.cores if args.cores is not None else (2 if args.small else 8)
    ops = args.ops if args.ops is not None else (600 if args.small else 4000)
    settings = ExperimentSettings(num_cores=cores, ops_per_thread=ops,
                                  seeds=(args.seed,),
                                  warmup_fraction=args.warmup)
    trace = build_trace(args.workload, num_threads=cores,
                        ops_per_thread=ops, seed=args.seed)
    rec = TraceRecorder()
    rec.meta.update({"config": args.config, "workload": args.workload,
                     "cores": cores, "ops_per_thread": ops,
                     "seed": args.seed, "engine": args.engine})
    start = time.perf_counter()
    result = simulate(make_config(args.config, settings), trace,
                      warmup_fraction=args.warmup, engine=args.engine,
                      recorder=rec)
    elapsed = time.perf_counter() - start
    _out(format_profile(rec))
    _info(f"[profile] {result.runtime} simulated cycles in {elapsed:.2f}s wall")
    _debug(f"[profile] {len(rec.spans)} spans, {len(rec.instants)} instants, "
           f"{len(rec.counters)} counters")
    if args.trace_out:
        path = write_chrome_trace(rec, args.trace_out)
        _info(f"[profile] wrote Chrome trace {path} "
              f"(open in https://ui.perfetto.dev)")
    if args.telemetry_out:
        path = write_telemetry(rec, args.telemetry_out)
        _info(f"[profile] wrote {path}")
    return 0


def _cmd_tables(_: argparse.Namespace) -> int:
    for text in (figure2_table(), figure4_table(), figure5_table(),
                 figure6_table(), figure7_table()):
        _out(text)
        _out("")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    _set_verbosity(-1 if args.quiet else (1 if args.verbose else 0))
    commands = {
        "simulate": _cmd_simulate,
        "figure": _cmd_figure,
        "study": _cmd_study,
        "sweep": _cmd_sweep,
        "worker": _cmd_worker,
        "workloads": _cmd_workloads,
        "scenario": _cmd_scenario,
        "profile": _cmd_profile,
        "tables": _cmd_tables,
    }
    try:
        return commands[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
