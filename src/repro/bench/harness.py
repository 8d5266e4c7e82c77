"""The ``repro bench`` harness: time the kernel, write ``BENCH_kernel.json``.

Seven sections are measured, mostly with best-of-``repeats`` wall-clock
timing (the minimum is robust against scheduler noise):

* **kernel** -- ``simulate()`` throughput in trace ops/sec for one workload
  under the three controller kinds (conventional ``sc``, selective
  ``invisi_sc``, continuous ``invisi_cont``), using the selected engine
  (``fast`` by default; ``reference`` times the retained pre-refactor
  execution path so before/after comparisons need no git checkout).
* **campaign** -- the campaign executor over a small (config x workload)
  sweep, cold (every cell simulated) and cached (every cell a disk hit).
  The executor is production plumbing and always runs the default fast
  kernel regardless of ``--engine``; ``preset.engine`` describes the
  kernel section only.
* **scenario** -- phase splicing: building one phase-structured scenario
  trace, which exercises the scenario engine and per-phase RNG streams
  (no simulation, so no engine applies).
* **geometries** -- the ``sc`` kernel at each of the preset's machine
  sizes (core counts resolved to tori by the geometry resolver), so a
  regression that only bites at scale -- e.g. in the interconnect or the
  directory -- cannot hide behind the small fixed-size kernel numbers.
* **studies** -- the unified all-studies campaign plan (every registered
  study's grid, deduplicated by :func:`repro.studies.compile_plan`, with
  the scaling study narrowed to the preset's ``geometry_cores``),
  executed cold (every unique cell simulated) and then cached (every
  cell a disk hit), so a regression in the study/plan/cache plumbing
  shows up even when the kernel itself is healthy.
* **distributed** -- the work-queue tier: one study plan drained through
  a shared sqlite backend by one worker process, then by two cooperating
  worker processes (lease-claiming over the same file), with the two
  drained stores checked for byte identity.  This times the coordination
  overhead and the real two-worker speedup; the identity flag is what
  the baseline check gates (wall-clock parallel speedup is too
  machine-dependent to gate).
* **telemetry** -- the ``sc`` kernel with no recorder, with a (disabled)
  :class:`~repro.obs.NullRecorder` attached, and with a live
  :class:`~repro.obs.TraceRecorder`.  The first two must agree: the
  telemetry hooks are behind a single ``is not None`` test per site, so
  attaching a disabled recorder must cost nothing measurable.
  ``overhead_frac`` (null-recorder vs. off, from best-of minima) is gated
  by :func:`check_against_baseline` at ``telemetry_tolerance`` (2% by
  default); the traced numbers are informative only.

Output schema (``BENCH_kernel.json``, version 8; v4-v7 also carried
sections timing the retired batch engine, v5 lacked ``distributed``, v4
lacked ``telemetry``, v2 lacked ``studies``, v1 also lacked
``geometries`` and ``geometry_cores``)::

    {
      "schema": 8,
      "preset": {"name", "workload", "num_cores", "ops_per_thread",
                 "seed", "repeats", "engine", "geometry_cores"},
      "kernels": [{"config", "total_ops", "runtime_cycles",
                   "events_processed", "best_seconds", "ops_per_sec"}],
      "campaign": {"cells", "cold_seconds", "cached_seconds",
                   "cached_speedup"},
      "scenario": {"name", "num_threads", "ops_per_thread",
                   "best_seconds", "ops_per_sec"},
      "geometries": [{"num_cores", "mesh", "total_ops",
                      "best_seconds", "ops_per_sec"}],
      "studies": {"studies", "cells", "unique_jobs", "cold_seconds",
                  "cached_seconds", "cached_speedup"},
      "distributed": {"study", "cells", "one_worker_seconds",
                      "two_worker_seconds", "speedup", "identical",
                      "one_worker_simulated", "two_worker_simulated"},
      "telemetry": {"config", "total_ops", "off_seconds",
                    "off_ops_per_sec", "null_seconds",
                    "null_ops_per_sec", "overhead_frac",
                    "traced_seconds", "traced_ops_per_sec"}
    }

``ops_per_sec`` is trace operations simulated (or spliced) per second of
wall clock.  :func:`check_against_baseline` compares the per-kernel and
per-geometry ``ops_per_sec`` of a fresh report against a committed
baseline file and reports regressions beyond a tolerance; the CI
``bench`` job fails on it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from ..campaign import CampaignExecutor, DirectoryBackend, Job
from ..engine.simulator import simulate
from ..experiments.common import ExperimentSettings, make_config
from ..obs import NullRecorder, TraceRecorder
from ..workloads.registry import build_trace

#: bump on any change to the report layout so stale baselines are rejected.
BENCH_SCHEMA_VERSION = 8

#: study drained by the distributed section (six configs, one workload).
DISTRIBUTED_STUDY = "figure8"

#: configuration short-names covering the three controller kinds.
KERNEL_CONFIGS = ("sc", "invisi_sc", "invisi_cont")

#: scenario used for the splicing benchmark.
SCENARIO_NAME = "false-sharing-storm"


@dataclass(frozen=True)
class BenchPreset:
    """Scale of one bench run."""

    name: str = "default"
    workload: str = "apache"
    num_cores: int = 4
    ops_per_thread: int = 2000
    seed: int = 3
    repeats: int = 3
    engine: str = "fast"
    #: machine sizes timed by the per-geometry section.
    geometry_cores: Tuple[int, ...] = (4, 8, 16)

    @classmethod
    def small(cls, engine: str = "fast") -> "BenchPreset":
        """CI-sized preset: fast enough for a smoke job."""
        return cls(name="small", num_cores=2, ops_per_thread=400, repeats=2,
                   engine=engine, geometry_cores=(2, 4))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "workload": self.workload,
            "num_cores": self.num_cores,
            "ops_per_thread": self.ops_per_thread,
            "seed": self.seed,
            "repeats": self.repeats,
            "engine": self.engine,
            "geometry_cores": list(self.geometry_cores),
        }


def _best_of(repeats: int, fn: Callable[[], Any]) -> Tuple[float, Any]:
    """Minimum wall-clock over ``repeats`` calls, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def _bench_kernels(preset: BenchPreset,
                   settings: ExperimentSettings) -> List[Dict[str, Any]]:
    trace = build_trace(preset.workload, num_threads=preset.num_cores,
                        ops_per_thread=preset.ops_per_thread, seed=preset.seed)
    total_ops = trace.total_ops()
    kernels: List[Dict[str, Any]] = []
    for name in KERNEL_CONFIGS:
        config = make_config(name, settings)
        best, result = _best_of(
            preset.repeats, lambda: simulate(config, trace, engine=preset.engine))
        kernels.append({
            "config": name,
            "total_ops": total_ops,
            "runtime_cycles": result.runtime,
            "events_processed": result.events_processed,
            "best_seconds": best,
            "ops_per_sec": total_ops / best if best > 0 else 0.0,
        })
    return kernels


def _bench_campaign(preset: BenchPreset, settings: ExperimentSettings,
                    cache_dir: Path) -> Dict[str, Any]:
    cells = [Job(name, preset.workload, preset.seed)
             for name in ("sc", "invisi_sc")]
    cold_executor = CampaignExecutor(settings, jobs=1)
    cold, _ = _best_of(preset.repeats, lambda: cold_executor.run(cells))
    cached_executor = CampaignExecutor(settings, jobs=1,
                                       cache=DirectoryBackend(cache_dir))
    cached_executor.run(cells)  # warm the cache
    cached, _ = _best_of(preset.repeats, lambda: cached_executor.run(cells))
    return {
        "cells": len(cells),
        "cold_seconds": cold,
        "cached_seconds": cached,
        "cached_speedup": cold / cached if cached > 0 else 0.0,
    }


def _bench_geometries(preset: BenchPreset) -> List[Dict[str, Any]]:
    """Time the ``sc`` kernel at each of the preset's machine sizes."""
    geometries: List[Dict[str, Any]] = []
    for num_cores in preset.geometry_cores:
        settings = ExperimentSettings(
            num_cores=num_cores, ops_per_thread=preset.ops_per_thread,
            seeds=(preset.seed,), workloads=(preset.workload,),
            warmup_fraction=0.0)
        config = make_config("sc", settings)
        trace = build_trace(preset.workload, num_threads=num_cores,
                            ops_per_thread=preset.ops_per_thread,
                            seed=preset.seed)
        total_ops = trace.total_ops()
        best, _ = _best_of(
            preset.repeats, lambda: simulate(config, trace, engine=preset.engine))
        geometries.append({
            "num_cores": num_cores,
            "mesh": f"{config.interconnect.mesh_width}x"
                    f"{config.interconnect.mesh_height}",
            "total_ops": total_ops,
            "best_seconds": best,
            "ops_per_sec": total_ops / best if best > 0 else 0.0,
        })
    return geometries


def _bench_studies(preset: BenchPreset, settings: ExperimentSettings,
                   cache_dir: Path) -> Dict[str, Any]:
    """Time the unified all-studies plan, cold then fully cached.

    The scaling study is narrowed to the preset's ``geometry_cores`` so the
    section scales with the preset like the geometry section does.  The
    cached measurement uses a fresh runner per repeat, so every cell is a
    disk hit rather than an in-process memo hit.
    """
    from ..experiments.scaling import scaling_study
    from ..studies import DEFAULT_STUDY_REGISTRY, compile_plan

    specs = [scaling_study(core_counts=preset.geometry_cores)
             if spec.name == "scaling" else spec
             for spec in DEFAULT_STUDY_REGISTRY.specs()]
    plan = compile_plan(specs, settings)
    cache = DirectoryBackend(Path(cache_dir) / "studies-cache")

    start = time.perf_counter()
    plan.execute(plan.runner(jobs=1, cache=cache))
    cold = time.perf_counter() - start
    cached, _ = _best_of(
        preset.repeats,
        lambda: plan.execute(plan.runner(jobs=1, cache=cache)))
    return {
        "studies": len(specs),
        "cells": plan.total_cells,
        "unique_jobs": len(plan.unique_cells),
        "cold_seconds": cold,
        "cached_seconds": cached,
        "cached_speedup": cold / cached if cached > 0 else 0.0,
    }


def _distributed_drain(task: Tuple[ExperimentSettings, str, str]) -> int:
    """Drain :data:`DISTRIBUTED_STUDY` through a shared backend.

    Runs in a worker subprocess: recompiles the plan from the study name
    (exactly what ``repro worker`` does), opens the shared sqlite URL,
    and drains whatever cells its peers have not claimed.  Returns the
    number of cells this worker simulated.
    """
    settings, url, worker_id = task
    from ..api import compile_study_plan, open_cache
    from ..campaign.queue import QueueWorker

    plan = compile_study_plan([DISTRIBUTED_STUDY], settings)
    worker = QueueWorker(plan, open_cache(url), worker_id=worker_id,
                         poll_interval=0.01, max_wait=120.0)
    return worker.drain().simulated


def _sqlite_entries(path: Path) -> Dict[str, str]:
    """Every stored (key, body) row of a sqlite backend file."""
    import sqlite3

    conn = sqlite3.connect(path)
    try:
        return dict(conn.execute("SELECT key, body FROM entries"))
    finally:
        conn.close()


def _bench_distributed(preset: BenchPreset, settings: ExperimentSettings,
                       cache_dir: Path) -> Dict[str, Any]:
    """Time a 1-worker vs 2-worker drain of one plan over shared sqlite.

    Each drain starts from a fresh backend file, so both timings are
    fully cold and include the lease-claim round trips.  The two-worker
    drain uses two real processes (the GIL would serialize threads), and
    the two drained stores are then compared row for row: determinism
    says they must be byte-identical no matter how the workers raced.
    That ``identical`` flag -- plus the claim-partition invariant that
    the two workers' simulated counts sum to the plan's unique cells --
    is what :func:`check_against_baseline` gates; the parallel speedup is
    reported but not gated, since it depends on free cores.
    """
    import multiprocessing

    from ..api import compile_study_plan

    plan = compile_study_plan([DISTRIBUTED_STUDY], settings)
    cells = len(plan.unique_cells)
    one_path = Path(cache_dir) / "distributed-one.sqlite"
    two_path = Path(cache_dir) / "distributed-two.sqlite"

    with multiprocessing.Pool(1) as pool:
        start = time.perf_counter()
        one_counts = pool.map(_distributed_drain,
                              [(settings, f"sqlite://{one_path}",
                                "bench-solo")])
        one_seconds = time.perf_counter() - start
    with multiprocessing.Pool(2) as pool:
        start = time.perf_counter()
        two_counts = pool.map(_distributed_drain,
                              [(settings, f"sqlite://{two_path}",
                                f"bench-w{i}") for i in range(2)])
        two_seconds = time.perf_counter() - start

    return {
        "study": DISTRIBUTED_STUDY,
        "cells": cells,
        "one_worker_simulated": one_counts[0],
        "two_worker_simulated": two_counts,
        "one_worker_seconds": one_seconds,
        "two_worker_seconds": two_seconds,
        "speedup": one_seconds / two_seconds if two_seconds > 0 else 0.0,
        "identical": _sqlite_entries(one_path) == _sqlite_entries(two_path),
    }


def _bench_scenario(preset: BenchPreset) -> Dict[str, Any]:
    best, trace = _best_of(
        preset.repeats,
        lambda: build_trace(SCENARIO_NAME, num_threads=preset.num_cores,
                            ops_per_thread=preset.ops_per_thread,
                            seed=preset.seed))
    total_ops = trace.total_ops()
    return {
        "name": SCENARIO_NAME,
        "num_threads": preset.num_cores,
        "ops_per_thread": preset.ops_per_thread,
        "best_seconds": best,
        "ops_per_sec": total_ops / best if best > 0 else 0.0,
    }


def _bench_telemetry(preset: BenchPreset,
                     settings: ExperimentSettings) -> Dict[str, Any]:
    """Measure the cost of the telemetry hooks on the hot path.

    Three timings of the same ``sc`` cell: recorder off (``None``), a
    disabled :class:`NullRecorder` attached, and a live
    :class:`TraceRecorder`.  The off and null numbers must coincide:
    every hook site collapses to one ``is not None`` test when telemetry
    is disabled.

    ``overhead_frac`` -- the number the CI gate holds under
    ``telemetry_tolerance`` -- is estimated to survive noisy shared
    machines, where a single off-vs-null ratio jitters by several percent
    on millisecond-scale runs.  The section runs at a floor of 2000
    ops/thread regardless of the preset, and takes the *minimum* over
    three independent blocks of the per-block ratio of interleaved
    best-of minima: scheduler noise only ever inflates one block's ratio,
    while a real per-event cost inflates every block, so the minimum
    rejects the former and cannot hide the latter.
    """
    ops = max(2000, preset.ops_per_thread)
    tele_settings = settings if ops == preset.ops_per_thread \
        else ExperimentSettings(
            num_cores=preset.num_cores, ops_per_thread=ops,
            seeds=(preset.seed,), workloads=(preset.workload,),
            warmup_fraction=0.0)
    trace = build_trace(preset.workload, num_threads=preset.num_cores,
                        ops_per_thread=ops, seed=preset.seed)
    total_ops = trace.total_ops()
    config = make_config("sc", tele_settings)
    per_block = max(3, preset.repeats)

    off_best = null_best = float("inf")
    overhead = float("inf")
    for _ in range(3):
        block_off = block_null = float("inf")
        for _ in range(per_block):
            start = time.perf_counter()
            simulate(config, trace, engine=preset.engine)
            block_off = min(block_off, time.perf_counter() - start)
            start = time.perf_counter()
            simulate(config, trace, engine=preset.engine,
                     recorder=NullRecorder())
            block_null = min(block_null, time.perf_counter() - start)
        if block_off > 0:
            overhead = min(overhead, (block_null - block_off) / block_off)
        off_best = min(off_best, block_off)
        null_best = min(null_best, block_null)
    traced_best, _ = _best_of(
        per_block, lambda: simulate(config, trace, engine=preset.engine,
                                    recorder=TraceRecorder()))
    return {
        "config": "sc",
        "total_ops": total_ops,
        "off_seconds": off_best,
        "off_ops_per_sec": total_ops / off_best if off_best > 0 else 0.0,
        "null_seconds": null_best,
        "null_ops_per_sec": total_ops / null_best if null_best > 0 else 0.0,
        "overhead_frac": overhead if overhead != float("inf") else 0.0,
        "traced_seconds": traced_best,
        "traced_ops_per_sec": total_ops / traced_best
        if traced_best > 0 else 0.0,
    }


def run_bench(preset: BenchPreset, cache_dir: Path) -> Dict[str, Any]:
    """Run the full bench suite; returns the report (see module docstring).

    ``cache_dir`` holds the throwaway result cache used by the campaign
    cached-path measurement; callers normally pass a temporary directory.
    """
    settings = ExperimentSettings(
        num_cores=preset.num_cores, ops_per_thread=preset.ops_per_thread,
        seeds=(preset.seed,), workloads=(preset.workload,),
        warmup_fraction=0.0)
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "preset": preset.to_dict(),
        "kernels": _bench_kernels(preset, settings),
        "campaign": _bench_campaign(preset, settings, cache_dir),
        "scenario": _bench_scenario(preset),
        "geometries": _bench_geometries(preset),
        "studies": _bench_studies(preset, settings, cache_dir),
        "distributed": _bench_distributed(preset, settings, cache_dir),
        "telemetry": _bench_telemetry(preset, settings),
    }


def format_bench_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of a bench report."""
    preset = report["preset"]
    lines = [
        f"repro bench ({preset['name']} preset, engine={preset['engine']}): "
        f"{preset['workload']} x {preset['num_cores']} cores x "
        f"{preset['ops_per_thread']} ops/thread, best of {preset['repeats']}",
    ]
    for kernel in report["kernels"]:
        lines.append(
            f"  kernel {kernel['config']:<12} {kernel['ops_per_sec']:>12,.0f} ops/s "
            f"({kernel['best_seconds'] * 1000:.1f} ms, "
            f"{kernel['events_processed']} events)")
    campaign = report["campaign"]
    lines.append(
        f"  campaign {campaign['cells']} cells: cold "
        f"{campaign['cold_seconds'] * 1000:.1f} ms, cached "
        f"{campaign['cached_seconds'] * 1000:.1f} ms "
        f"({campaign['cached_speedup']:.1f}x)")
    scenario = report["scenario"]
    lines.append(
        f"  scenario {scenario['name']}: splice "
        f"{scenario['ops_per_sec']:>12,.0f} ops/s "
        f"({scenario['best_seconds'] * 1000:.1f} ms)")
    for geometry in report.get("geometries", ()):
        lines.append(
            f"  geometry {geometry['num_cores']:>3} cores "
            f"({geometry['mesh']:>3} torus) {geometry['ops_per_sec']:>12,.0f} "
            f"ops/s ({geometry['best_seconds'] * 1000:.1f} ms)")
    studies = report.get("studies")
    if studies:
        lines.append(
            f"  studies plan {studies['studies']} studies, "
            f"{studies['cells']} cells -> {studies['unique_jobs']} unique: "
            f"cold {studies['cold_seconds'] * 1000:.1f} ms, cached "
            f"{studies['cached_seconds'] * 1000:.1f} ms "
            f"({studies['cached_speedup']:.1f}x)")
    distributed = report.get("distributed")
    if distributed:
        check = "" if distributed["identical"] else "  IDENTITY MISMATCH"
        split = "+".join(str(n) for n in distributed["two_worker_simulated"])
        lines.append(
            f"  distributed {distributed['study']} "
            f"({distributed['cells']} cells, sqlite queue): 1 worker "
            f"{distributed['one_worker_seconds'] * 1000:.1f} ms, 2 workers "
            f"{distributed['two_worker_seconds'] * 1000:.1f} ms "
            f"({distributed['speedup']:.2f}x, split {split}){check}")
    telemetry = report.get("telemetry")
    if telemetry:
        lines.append(
            f"  telemetry off {telemetry['off_ops_per_sec']:>12,.0f} ops/s, "
            f"null recorder {telemetry['null_ops_per_sec']:>12,.0f} "
            f"({telemetry['overhead_frac']:+.1%} overhead), traced "
            f"{telemetry['traced_ops_per_sec']:>12,.0f}")
    return "\n".join(lines)


def format_baseline_delta(report: Dict[str, Any],
                          baseline: Dict[str, Any]) -> str:
    """Per-section delta table of a report vs. a baseline.

    Printed by ``repro bench --check`` even when the check passes, so
    every CI run shows where throughput moved, not just whether it fell
    off a cliff.  Positive deltas are speedups.
    """
    rows: List[Tuple[str, float, float]] = []
    base_kernels = {k["config"]: k for k in baseline.get("kernels", [])}
    for kernel in report.get("kernels", []):
        base = base_kernels.get(kernel["config"])
        if base:
            rows.append((f"kernel {kernel['config']}",
                         kernel["ops_per_sec"], base["ops_per_sec"]))
    scenario, base_scenario = report.get("scenario"), baseline.get("scenario")
    if scenario and base_scenario:
        rows.append(("scenario splice", scenario["ops_per_sec"],
                     base_scenario["ops_per_sec"]))
    base_geometries = {g["num_cores"]: g
                       for g in baseline.get("geometries", [])}
    for geometry in report.get("geometries", []):
        base = base_geometries.get(geometry["num_cores"])
        if base:
            rows.append((f"geometry {geometry['num_cores']} cores",
                         geometry["ops_per_sec"], base["ops_per_sec"]))
    telemetry = report.get("telemetry")
    base_telemetry = baseline.get("telemetry")
    if telemetry and base_telemetry:
        rows.append(("telemetry null recorder",
                     telemetry["null_ops_per_sec"],
                     base_telemetry["null_ops_per_sec"]))

    lines = [f"  {'section':<24} {'current':>14} {'baseline':>14} {'delta':>8}"]
    for label, current, base in rows:
        delta = (current - base) / base if base > 0 else 0.0
        lines.append(f"  {label:<24} {current:>14,.0f} {base:>14,.0f} "
                     f"{delta:>+8.1%}")
    if telemetry:
        base_frac = (f"{base_telemetry['overhead_frac']:>+14.2%}"
                     if base_telemetry else f"{'n/a':>14}")
        lines.append(f"  {'telemetry overhead':<24} "
                     f"{telemetry['overhead_frac']:>+14.2%} {base_frac}")
    return "\n".join(lines)


def check_against_baseline(report: Dict[str, Any], baseline: Dict[str, Any],
                           tolerance: float = 0.30,
                           telemetry_tolerance: float = 0.02) -> List[str]:
    """Compare kernel throughput against a baseline report.

    Returns a list of human-readable regression messages; empty means the
    report is within ``tolerance`` (fractional allowed slowdown) of the
    baseline on every kernel.  Schema mismatches and preset mismatches
    (engine, workload, scale, seed) are reported as failures rather than
    silently compared.

    The telemetry section is gated within the fresh report itself: its
    ``overhead_frac`` (disabled-recorder run vs. recorder-off run, both
    best-of minima from the same process) must not exceed
    ``telemetry_tolerance``.  Comparing within one run rather than across
    runs keeps the 2% gate meaningful on noisy CI machines.
    """
    failures: List[str] = []
    if baseline.get("schema") != report.get("schema"):
        return [f"baseline schema {baseline.get('schema')!r} does not match "
                f"report schema {report.get('schema')!r}"]
    # Throughput numbers are only comparable at the same scale and engine.
    report_preset = report.get("preset", {})
    baseline_preset = baseline.get("preset", {})
    for field in ("engine", "workload", "num_cores", "ops_per_thread", "seed",
                  "geometry_cores"):
        if report_preset.get(field) != baseline_preset.get(field):
            failures.append(
                f"preset mismatch on {field!r}: report "
                f"{report_preset.get(field)!r} vs baseline "
                f"{baseline_preset.get(field)!r} (throughput not comparable)")
    if failures:
        return failures

    def compare(section: str, fresh: Dict[str, Any], base: Dict[str, Any],
                label: str) -> None:
        floor = base["ops_per_sec"] * (1.0 - tolerance)
        if fresh["ops_per_sec"] < floor:
            failures.append(
                f"{section} {label}: {fresh['ops_per_sec']:,.0f} ops/s is "
                f"below {floor:,.0f} (baseline {base['ops_per_sec']:,.0f} "
                f"- {tolerance:.0%} tolerance)")

    base_kernels = {k["config"]: k for k in baseline.get("kernels", [])}
    for kernel in report["kernels"]:
        name = kernel["config"]
        base = base_kernels.get(name)
        if base is None:
            failures.append(f"kernel {name}: missing from baseline")
            continue
        compare("kernel", kernel, base, name)
    base_geometries = {g["num_cores"]: g for g in baseline.get("geometries", [])}
    for geometry in report.get("geometries", []):
        cores = geometry["num_cores"]
        base = base_geometries.get(cores)
        if base is None:
            failures.append(f"geometry {cores} cores: missing from baseline")
            continue
        compare("geometry", geometry, base, f"{cores} cores")
    distributed = report.get("distributed")
    if distributed is None:
        failures.append("distributed section missing from report")
    else:
        # Gated within the fresh report (wall-clock parallel speedup is
        # machine-dependent): the two drained stores must be
        # byte-identical, and the lease protocol must have partitioned
        # the plan -- every cell simulated by exactly one worker.
        if not distributed["identical"]:
            failures.append(
                f"distributed: 1-worker and 2-worker drains of "
                f"{distributed['study']} are not byte-identical")
        if sum(distributed["two_worker_simulated"]) != distributed["cells"]:
            failures.append(
                f"distributed: two-worker drain simulated "
                f"{distributed['two_worker_simulated']} cells, expected a "
                f"partition of {distributed['cells']}")
    telemetry = report.get("telemetry")
    if telemetry is None:
        failures.append("telemetry section missing from report")
    elif telemetry["overhead_frac"] > telemetry_tolerance:
        failures.append(
            f"telemetry: disabled-recorder overhead "
            f"{telemetry['overhead_frac']:.2%} exceeds "
            f"{telemetry_tolerance:.0%} (off "
            f"{telemetry['off_ops_per_sec']:,.0f} ops/s vs null recorder "
            f"{telemetry['null_ops_per_sec']:,.0f})")
    return failures


def load_report(path: Path) -> Dict[str, Any]:
    """Read a bench report / baseline file."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_report(report: Dict[str, Any], path: Path) -> None:
    """Write a bench report with stable key order."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
