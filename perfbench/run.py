"""Repository benchmark: host-time cost of the InvisiFence simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload studies-cold --seed 3 --seconds 15 --trace 0

``--workload`` is one of ``studies-cold``, ``spec-storm``, ``conv-oltp``
and ``studies-warm`` (see ``catalogue.py`` for why each exists and what
every metric means).  The run sets up, then repeats timed passes for
``--seconds`` seconds and reports medians over the passes.  Times are
CPU seconds rescaled to a reference host speed by calibration slices
run between cells (``calibrate.py``).  Every pass's results are checked;
a per-workload observables digest is printed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` one timed pass runs first
(the base of ``trace_overhead``), then a span pass, a profiled pass and
a recorder pass attribute the time and work to ``repro`` layers, and the
JSON object carries the per-layer metrics.  Spans are written to
``.perfbench/spans/``.

``BENCHMARK.json`` gates the workloads in ``catalogue.GATED``; the other
two stay runnable for layer attribution.  The benchmark imports the
simulator from ``src/`` next to this directory and exits with status 2
if it is not there.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: the traced run profiles enough passes to cover about this much CPU.
TRACE_TARGET_S = 1.0

#: child interpreters whose import time joins this process's own in the
#: median that setup_s takes.
IMPORT_REPEATS = 4

_IMPORT_PROBE = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from calibrate import ReferenceClock
from run import bracketed_import
print(bracketed_import(ReferenceClock()))
"""


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    from catalogue import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bracketed_import(clock: ReferenceClock) -> float:
    """Import the simulator between two slices -> reference CPU seconds.

    A first slice warms the reference loop up, as the later ones are.
    """
    clock.slice()
    before = clock.slice()
    start = time.process_time()
    import workloads  # noqa: F401  (imports repro and registers the studies)
    cpu = time.process_time() - start
    return clock.rescale(cpu, before, clock.slice())


def import_seconds(clock: ReferenceClock) -> float:
    """Median reference CPU seconds to import the simulator.

    An import happens once per process, so besides this process's own
    import it is measured in child interpreters, each waited for, to give
    set-up several samples.  Each child calibrates its own import.
    """
    samples = [bracketed_import(clock)]
    probe = _IMPORT_PROBE.format(src=str(SRC), bench=str(BENCH_DIR))
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                               capture_output=True, text=True, timeout=120,
                               check=True)
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def observables_digest(results) -> str:
    """SHA-256 of the sorted result JSON without ``events_processed``.

    ``events_processed`` is engine bookkeeping, not a simulated
    observable, so it is left out of the digest.
    """
    rows = []
    for result in results:
        data = result.to_dict()
        data.pop("events_processed", None)
        rows.append(json.dumps(data, sort_keys=True))
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()


class Checker:
    """Output checks shared by every pass of one run."""

    def __init__(self) -> None:
        self.digest: Optional[str] = None
        self.tables: Optional[str] = None
        self.problems: List[str] = []

    def bad_results(self, outcome) -> int:
        """Cells that finished with an idle core or do not round-trip."""
        from repro import RunResult

        bad = 0
        for result in outcome.results:
            text = result.to_json()
            if any(core.finish_time == 0 for core in result.core_stats):
                bad += 1
            elif RunResult.from_json(text).to_json() != text:
                bad += 1
        return bad

    def check(self, outcome) -> int:
        """Returns the pass's failed cells; notes non-repeating outputs."""
        failed = outcome.failed + self.bad_results(outcome)
        digest = observables_digest(outcome.results)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.problems.append("observables digest changed between passes")
        if outcome.tables is not None:
            tables = hashlib.sha256("\n".join(outcome.tables).encode())
            if not all(outcome.tables):
                self.problems.append("a study formatted an empty table")
            if self.tables is None:
                self.tables = tables.hexdigest()
            elif tables.hexdigest() != self.tables:
                self.problems.append("study tables changed between passes")
        return failed


class Pass(NamedTuple):
    #: plain CPU seconds of the timed call, calibration slices left out.
    cpu_s: float
    #: the same rescaled to the reference host speed.
    ref_s: float
    #: reference CPU seconds of the pass's untimed set-up (trace builds).
    setup_s: Optional[float]
    outcome: object


def timed_pass(work, checker: Checker, clock: ReferenceClock) -> Pass:
    """One prepare / timed / cleanup cycle, measured by ``clock``.

    Calibration slices bracket the set-up and the timed call and split
    the timed call between its cells.
    """
    before = clock.slice()
    setup_cpu = work.prepare()
    gc.collect()
    after = clock.start()
    outcome = work.timed(clock=clock)
    cpu_s, ref_s = clock.stop()
    work.cleanup()
    outcome.failed = checker.check(outcome)
    setup = (None if setup_cpu is None
             else clock.rescale(setup_cpu, before, after))
    return Pass(cpu_s, ref_s, setup, outcome)


def profiled_pass(work, checker: Checker, profiler) -> Tuple[float, object]:
    """One cycle with the timed call profiled -> (CPU seconds, outcome)."""
    work.prepare()
    gc.collect()
    profiler.enable()
    start = time.process_time()
    outcome = work.timed()
    cpu = time.process_time() - start
    profiler.disable()
    work.cleanup()
    outcome.failed = checker.check(outcome)
    return cpu, outcome


def end_to_end(work, passes, import_s: float, setup_samples) -> Dict:
    ref_s = statistics.median(p.ref_s for p in passes)
    results = passes[0].outcome.results
    ops = sum(work.ops_of(result) for result in results)
    samples = list(setup_samples) + [p.setup_s for p in passes
                                     if p.setup_s is not None]
    return {
        "ref_cpu_s": ref_s,
        "sim_ops_per_s": ops / ref_s,
        "cells_per_s": len(results) / ref_s,
        "setup_s": import_s + (statistics.median(samples) if samples else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def sim_metrics(results) -> Dict[str, float]:
    """Modelled (simulated) quantities summed over the pass's cells."""
    totals = [result.aggregate() for result in results]
    accounted = sum(t.total_accounted() for t in totals)
    stalls = sum(t.ordering_stall_cycles() for t in totals)
    return {
        "sim.runtime_cycles": sum(r.runtime for r in results),
        "sim.cycles_per_core": sum(r.cycles_per_core() for r in results),
        "sim.ordering_stall_frac": stalls / accounted if accounted else 0.0,
        "sim.sb_drain_cycles": sum(t.sb_drain for t in totals),
        "sim.violation_cycles": sum(t.violation for t in totals),
    }


def traced_run(work, checker: Checker, tracer, untraced_cpu: float,
               untraced_ref: float,
               compile_s: float) -> Tuple[Dict[str, float], int]:
    """Span, profiled and recorder passes -> (per-layer metrics, failed).

    ``untraced_cpu`` and ``untraced_ref`` are the timed passes' median
    plain and reference CPU seconds.  The span pass also hands the public
    ``recorder=`` hook a counting recorder; workloads whose timed call
    cannot pass it on (the study plan) re-simulate their cells with it in
    a separate recorder pass.  No pass here runs calibration slices, so
    the profiler sees only the workload.
    """
    from catalogue import ABORT_CAUSES
    from layers import CountingRecorder, profile_layers

    n = max(1, round(TRACE_TARGET_S / untraced_cpu))
    metrics: Dict[str, float] = {}
    failed = 0

    # Spans: the benchmark's wrappers around each call into a layer.
    recorder = CountingRecorder()
    mark = len(tracer.spans)
    for _ in range(n):
        with tracer.span("pass"):
            work.prepare(tracer)
            outcome = work.timed(tracer, recorder)
        work.cleanup()
        outcome.failed = checker.check(outcome)
        failed += outcome.failed
    metrics.update({
        "campaign.cache_get_s": tracer.total("cache.get", mark) / n,
        "campaign.cache_put_s": tracer.total("cache.put", mark) / n,
        "campaign.cache_hits": outcome.cache_hits,
        "campaign.cache_misses": outcome.cache_misses,
        "campaign.cache_stores": outcome.cache_stores,
        "studies.compile_plan_s": compile_s,
        "studies.results_s": tracer.total("results", mark) / n,
    })
    reference = outcome
    metrics.update(sim_metrics(reference.results))

    # Deterministic profiler over the same timed call.
    profiler = cProfile.Profile()
    traced = [profiled_pass(work, checker, profiler) for _ in range(n)]
    failed += sum(outcome.failed for _, outcome in traced)
    layer = profile_layers(profiler, SRC / "repro", BENCH_DIR, n)
    ops = sum(work.ops_of(result) for result in reference.simulated)
    pushes = layer.pop("engine.step_events") + layer["engine.callback_events"]
    pops = layer["engine.heap_pops"]
    metrics.update(layer)
    metrics.update({
        "trace_overhead": statistics.median(cpu for cpu, _ in traced)
        / untraced_cpu,
        "engine.ops_simulated": ops,
        "engine.heap_pushes": pushes,
        "engine.pops_per_op": pops / ops if ops else 0.0,
        "engine.cpu_us_per_heap_event": untraced_ref * 1e6 / pops
        if pops else 0.0,
    })

    simulated = reference.simulated
    recorded = work.recorder_pass(tracer, recorder, reference.simulated)
    if recorded is not None:
        n = 1
        simulated = recorded.results
        failed += recorded.failed
        if observables_digest(recorded.results) != \
                observables_digest(reference.simulated):
            checker.problems.append("recorder pass changed simulated results")
    metrics["workloads.build_trace_s"] = tracer.total("build_trace", mark) / n
    counters, maxima = recorder.counters, recorder.maxima
    for name in ("l1_hits", "l1_misses", "upgrades", "transactions",
                 "invalidations", "conflicts"):
        metrics[f"coherence.{name}"] = counters.get(f"coherence.{name}",
                                                    0) // n
    metrics["consistency.sb_inserted"] = counters.get("sb.inserted", 0) // n
    metrics["consistency.sb_peak_occupancy"] = maxima.get("sb.peak_occupancy",
                                                          0)
    for cause in ABORT_CAUSES:
        metrics[f"core.abort.{cause}"] = counters.get(f"spec.abort.{cause}",
                                                      0) // n
    totals = [result.aggregate() for result in simulated]
    for name in ("speculations", "commits", "aborts", "replayed_ops"):
        metrics[f"core.{name}"] = sum(getattr(t, name) for t in totals)
    metrics["core.commit_ratio"] = (
        metrics["core.commits"] / metrics["core.speculations"]
        if metrics["core.speculations"] else 0.0)
    return metrics, failed


def print_metrics(title: str, metrics: Dict[str, float]) -> None:
    from catalogue import UNITS

    print(title)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {UNITS[name]}")


def run(args: argparse.Namespace, clock: ReferenceClock, import_s: float,
        work_dir: Path) -> int:
    from catalogue import END_TO_END, PER_LAYER, UNITS
    from layers import Tracer
    from workloads import make_workload

    tracer = Tracer() if args.trace else None
    work = make_workload(args.workload, args.seed, work_dir)
    setup_samples = work.setup(clock, tracer)

    # Passes repeat while the next one is expected to end within the
    # measuring time; the first pass always runs.  A traced run reports
    # no end-to-end metric, so one pass is its base and the traced
    # passes that follow keep it within the time limit.
    seconds = 0.0 if args.trace else args.seconds
    checker = Checker()
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) \
            / len(passes) <= seconds:
        passes.append(timed_pass(work, checker, clock))
    attempted = sum(p.outcome.attempted for p in passes)
    failed = sum(p.outcome.failed for p in passes)
    e2e = end_to_end(work, passes, import_s, setup_samples)
    cpu_s = statistics.median(p.cpu_s for p in passes)

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} timed "
          f"passes, {attempted} cells attempted, {failed} failed")
    rates = statistics.quantiles(clock.rates, n=4)
    print(f"  calibration: {len(clock.rates)} slices, {rates[0]:.3f} / "
          f"{rates[1]:.3f} / {rates[2]:.3f} us a step (quartiles); "
          f"plain median pass CPU {cpu_s:.3f} s (not gated)")
    if getattr(work, "fill_s", 0.0):
        print(f"  cache fill before timing: {work.fill_s:.3f} s CPU "
              "(not in setup_s)")
    print_metrics("end-to-end (median pass):", e2e)
    metrics = {m.name: e2e[m.name] for m in END_TO_END}
    if tracer is not None:
        compile_s = (statistics.median(work.compile_samples)
                     if getattr(work, "compile_samples", None) else 0.0)
        layer, traced_failed = traced_run(work, checker, tracer, cpu_s,
                                          e2e["ref_cpu_s"], compile_s)
        failed += traced_failed
        metrics = {m.name: layer[m.name] for m in PER_LAYER}
        print_metrics("per-layer (traced run, per pass):", metrics)
        print("spans (count, total s, self s):")
        for name, row in tracer.summary().items():
            print(f"  {name:16s} {row['count']:6d} {row['total_s']:12.6f} "
                  f"{row['self_s']:12.6f}")
        spans_path = OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    print(f"observables digest: {checker.digest}")
    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}")

    correct = failed == 0 and not checker.problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found at {SRC}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from calibrate import ReferenceClock

    clock = ReferenceClock()
    import_s = import_seconds(clock)

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        return run(args, clock, import_s, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
