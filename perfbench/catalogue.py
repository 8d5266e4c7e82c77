"""The benchmark's workloads and metric catalogue.

This file is the reference for what every number the benchmark prints
means.  ``run.py`` takes units and directions from here, so a metric is
described in exactly one place.

Relation to ``repro bench``
---------------------------
``python -m repro bench`` (``src/repro/bench/harness.py``) is the
simulator's built-in perf harness: it times many sections best-of-N in
wall time, overwrites ``BENCH_kernel.json`` on every run and gates
against ``benchmarks/bench_baseline.json``.  Its kernel rows quote
``RunResult.events_processed``, which counts the events the reference
engine *would* have processed, not the heap events that ran.  This
benchmark is separate from it and does not read or write either file.
It reports process CPU time rescaled to a reference host speed
(``calibrate.py``) as the primary metric, takes medians over repeated
passes, counts heap events from outside the program (profiler
call counts of ``EventQueue.pop`` / ``schedule`` / ``schedule_step``),
and attributes time to ``repro`` subpackages in a separate traced run.
Fixing the ``repro bench`` schema drift and tracing layers inside the
program are left to later changes.

Seeds
-----
The workload seed is a command-line argument.  ``DEFAULT_SEED`` is used
when none is given.  ``HELDOUT_SEED`` is reserved: do not use it while
developing a change.  A change that claims a gain must show the gain on
it as well.

Layers
------
A layer is a ``repro`` subpackage.  ``engine.events`` (the file
``engine/events.py``) is kept apart from the rest of ``engine``.
``experiments`` holds the study build functions.  ``other`` is every
other ``repro`` module (``api``, ``config``, ``obs``, ...) plus this
benchmark's own code.  ``stdlib`` is the Python standard library,
built-in functions and third-party packages such as numpy.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

DEFAULT_SEED = 3
HELDOUT_SEED = 20261

#: ops per thread and machine size of the all-studies plan (the
#: ``repro bench`` default preset), and its narrowed scaling study.
STUDIES_CORES = 4
STUDIES_OPS = 2000
STUDIES_WORKLOADS = ("apache",)
SCALING_CORES = (4, 8, 16)


class Workload(NamedTuple):
    name: str
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload("studies-cold",
             "all-studies plan (60 unique cells) simulated cold into a fresh "
             "cache, then every study's table built: the headline number; "
             "every layer incl. cache writes"),
    Workload("spec-storm",
             "invisi_sc on false-sharing-storm, 16 cores x 2000 ops, 6 seeds "
             "a pass: speculation, aborts and commit checks dominate"),
    Workload("conv-oltp",
             "sc on oltp-oracle, 16 cores x 4000 ops: miss-heavy conventional "
             "cell; no speculation, so speculative-path changes must not move "
             "it"),
    Workload("studies-warm",
             "the same plan served from a filled cache plus every study's "
             "result and format() table: cache read path and tabulation only"),
)


#: Workloads listed in BENCHMARK.json, whose end-to-end metrics are gated.
#: spec-storm and studies-warm stay runnable for layer attribution, but
#: their plain CPU time spread too widely between runs on a shared 2-CPU
#: host (quartile spread / median 0.31 and 0.38 over ten seeds) to carry a
#: regression bound.  They were not measured again once times were
#: rescaled by calibration slices.
GATED = ("studies-cold", "conv-oltp")


class Metric(NamedTuple):
    name: str
    unit: str
    #: "lower" or "higher" is better.
    better: str
    layer: str
    #: which end-to-end metric it should move, on which workload (for an
    #: end-to-end metric: what it measures).  Bounds live in
    #: BENCHMARK.json.
    moves: str


#: Every time below is process CPU time rescaled, segment by segment, to
#: the reference host speed (``calibrate.py``): "reference seconds".
END_TO_END: Tuple[Metric, ...] = (
    Metric("ref_cpu_s", "s", "lower", "end-to-end",
           "primary: median reference CPU seconds of one timed pass"),
    Metric("sim_ops_per_s", "1/s", "higher", "end-to-end",
           "trace ops in the pass's cells (simulated, or served on "
           "studies-warm) per reference CPU second"),
    Metric("cells_per_s", "1/s", "higher", "end-to-end",
           "unique cells completed or served per reference CPU second"),
    Metric("setup_s", "s", "lower", "end-to-end",
           "reference CPU seconds of the median import plus the median "
           "over passes of the pass's trace builds (cell workloads) or of "
           "the plan compilations (studies-*)"),
    Metric("peak_rss_mb", "MB", "lower", "end-to-end",
           "peak resident memory of the process"),
)

#: Layers attributed by profiler self time, in report order.
LAYERS = ("engine.events", "engine", "cpu", "consistency", "core", "aso",
          "coherence", "memory", "interconnect", "trace", "workloads",
          "scenarios", "campaign", "studies", "stats", "experiments", "other",
          "stdlib")

#: Where each layer's self time should show up first.
_LAYER_MOVES: Dict[str, str] = {
    "engine.events": "ref_cpu_s on spec-storm and studies-cold",
    "engine": "ref_cpu_s on every simulating workload",
    "cpu": "ref_cpu_s on spec-storm, conv-oltp and studies-cold",
    "consistency": "ref_cpu_s on conv-oltp",
    "core": "ref_cpu_s on spec-storm; ~0 on conv-oltp",
    "aso": "ref_cpu_s on studies-cold (aso_sc cells)",
    "coherence": "ref_cpu_s on conv-oltp and spec-storm",
    "memory": "ref_cpu_s on conv-oltp",
    "interconnect": "ref_cpu_s on conv-oltp",
    "trace": "ref_cpu_s on every simulating workload (trace compilation)",
    "workloads": "setup_s on cell workloads, ref_cpu_s on studies-cold",
    "scenarios": "ref_cpu_s on studies-cold, setup_s on spec-storm",
    "campaign": "ref_cpu_s on studies-cold and studies-warm",
    "studies": "ref_cpu_s on studies-warm",
    "stats": "ref_cpu_s on studies-warm",
    "experiments": "ref_cpu_s on studies-warm",
    "other": "none expected; config, api and benchmark glue",
    "stdlib": "ref_cpu_s everywhere (heapq, json, dict/list builtins)",
}

#: Abort causes the speculative controllers report.
ABORT_CAUSES = ("conflict", "external-read", "external-write", "cov-timeout")


def _per_layer() -> List[Metric]:
    metrics = [Metric(f"{layer}.self_s", "s", "lower", layer,
                      _LAYER_MOVES[layer]) for layer in LAYERS]
    metrics += [
        Metric("trace_overhead", "x", "lower", "benchmark",
               "profiled pass CPU / plain CPU of the timed pass; "
               "informational"),
        Metric("engine.ops_simulated", "count", "lower", "engine",
               "trace ops simulated in one pass (0 on studies-warm)"),
        Metric("engine.heap_pushes", "count", "lower", "engine.events",
               "ref_cpu_s on spec-storm and studies-cold, barely "
               "conv-oltp"),
        Metric("engine.heap_pops", "count", "lower", "engine.events",
               "ref_cpu_s on spec-storm and studies-cold, barely "
               "conv-oltp"),
        Metric("engine.callback_events", "count", "lower", "engine.events",
               "ref_cpu_s on spec-storm (commit checks, deferred aborts)"),
        Metric("engine.inline_ops", "count", "higher", "engine.events",
               "ref_cpu_s on spec-storm and studies-cold"),
        Metric("engine.pops_per_op", "ratio", "lower", "engine.events",
               "ref_cpu_s on spec-storm and studies-cold"),
        Metric("engine.cpu_us_per_heap_event", "us", "lower", "engine.events",
               "timed pass ref_cpu_s / heap pops; ref_cpu_s on spec-storm"),
        Metric("memory.lookup_calls", "count", "lower", "memory",
               "ref_cpu_s and sim_ops_per_s on conv-oltp"),
        Metric("memory.install_calls", "count", "lower", "memory",
               "ref_cpu_s and sim_ops_per_s on conv-oltp"),
    ]
    for name in ("l1_hits", "l1_misses", "upgrades", "transactions",
                 "invalidations", "conflicts"):
        metrics.append(Metric(f"coherence.{name}", "count", "lower"
                              if name != "l1_hits" else "higher", "coherence",
                              "ref_cpu_s and sim_ops_per_s on conv-oltp"))
    metrics += [
        Metric("consistency.sb_inserted", "count", "lower", "consistency",
               "ref_cpu_s and sim_ops_per_s on conv-oltp"),
        Metric("consistency.sb_peak_occupancy", "count", "lower",
               "consistency", "ref_cpu_s on conv-oltp"),
    ]
    for name in ("speculations", "commits", "aborts", "replayed_ops"):
        metrics.append(Metric(f"core.{name}", "count",
                              "higher" if name == "commits" else "lower",
                              "core",
                              "ref_cpu_s on spec-storm; 0 on conv-oltp"))
    metrics.append(Metric("core.commit_ratio", "ratio", "higher", "core",
                          "ref_cpu_s on spec-storm; 0 on conv-oltp"))
    metrics += [Metric(f"core.abort.{cause}", "count", "lower", "core",
                       "ref_cpu_s on spec-storm; 0 on conv-oltp")
                for cause in ABORT_CAUSES]
    metrics += [
        Metric("workloads.build_trace_s", "s", "lower", "workloads",
               "setup_s on cell workloads, ref_cpu_s on studies-cold"),
        Metric("campaign.cache_get_s", "s", "lower", "campaign",
               "ref_cpu_s on studies-warm"),
        Metric("campaign.cache_put_s", "s", "lower", "campaign",
               "ref_cpu_s on studies-cold"),
        Metric("campaign.cache_hits", "count", "higher", "campaign",
               "all 60 on studies-warm, 0 elsewhere"),
        Metric("campaign.cache_misses", "count", "lower", "campaign",
               "all 60 on studies-cold, 0 elsewhere"),
        Metric("campaign.cache_stores", "count", "lower", "campaign",
               "all 60 on studies-cold, 0 elsewhere"),
        Metric("studies.compile_plan_s", "s", "lower", "studies",
               "setup_s on studies-*"),
        Metric("studies.results_s", "s", "lower", "studies",
               "ref_cpu_s on studies-warm, a little on studies-cold"),
    ]
    # Simulated (modelled) quantities: exact repeats, informational only.
    # The model has no hardware reference, so no error figure is given.
    metrics += [
        Metric("sim.runtime_cycles", "cycles", "lower", "sim",
               "none; sum over the pass's cells"),
        Metric("sim.cycles_per_core", "cycles", "lower", "sim",
               "none; sum over the pass's cells"),
        Metric("sim.ordering_stall_frac", "ratio", "lower", "sim",
               "none; ordering stall cycles / accounted cycles"),
        Metric("sim.sb_drain_cycles", "cycles", "lower", "sim",
               "none; sum over the pass's cells"),
        Metric("sim.violation_cycles", "cycles", "lower", "sim",
               "none; sum over the pass's cells"),
    ]
    return metrics


PER_LAYER: Tuple[Metric, ...] = tuple(_per_layer())

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}
