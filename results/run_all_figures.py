"""Run every registered study and write the formatted tables to disk.

This is the script used to produce ``results/full_run.txt`` (regenerated,
not committed -- see EXPERIMENTS.md for how to interpret and rebuild it).
Scale is controlled by the constants below; ``--quick`` drops to a smoke
scale for sanity checks.

The whole suite runs through **one** deduplicated campaign plan: every
study's grid (figures 1/8/9/10/11/12, both ablations, scaling, scenarios)
is unioned by repro.studies.compile_plan, shared cells (e.g. the
conventional-SC baseline that figures 8/9/10/12 normalise against) are
simulated exactly once -- in parallel with ``--jobs N`` and served from
the persistent result cache (results/cache/) when already simulated --
and the study builders then only format memoized results.  Each study
also emits JSON + CSV artifacts next to this script.
"""
import argparse
import time

import repro.experiments  # noqa: F401  (imports register the studies)
from repro import compile_study_plan, open_cache, run_study
from repro.experiments import (ExperimentSettings, figure2_table, figure4_table,
                               figure5_table, figure6_table, figure7_table)
from repro.studies import DEFAULT_STUDY_REGISTRY

NUM_CORES = 16
OPS_PER_THREAD = 6000
SEEDS = (1,)

#: presentation order (the classic figure order, then the newer studies).
STUDY_ORDER = ("figure1", "figure8", "figure9", "figure10", "figure11",
               "figure12", "scenarios", "scaling", "ablation-sb",
               "ablation-cov")

def main(out_path, jobs=1, cache_url="results/cache", quick=False,
         artifacts_dir="results"):
    settings = ExperimentSettings(
        num_cores=4 if quick else NUM_CORES,
        ops_per_thread=800 if quick else OPS_PER_THREAD,
        seeds=SEEDS)
    cache = open_cache(cache_url) if cache_url else None
    specs = [DEFAULT_STUDY_REGISTRY.get(name) for name in STUDY_ORDER]
    leftover = [s for s in DEFAULT_STUDY_REGISTRY.specs() if s.name not in STUDY_ORDER]
    specs.extend(leftover)  # user-registered studies ride along

    # One prefetch: the union of every study's cells, deduplicated, fanned
    # out over the worker pool, and persisted in the shared cache.
    plan = compile_study_plan(specs, settings)
    study_runner = plan.runner(jobs=jobs, cache=cache)
    start = time.time()
    report = plan.execute(study_runner)
    print(f"campaign: {plan.describe()}; {report.describe(cache)} "
          f"in {time.time()-start:.0f}s (jobs={jobs})", flush=True)

    sections = []
    results = {}
    for spec in specs:
        t0 = time.time()
        result = run_study(spec, settings, study_runner=study_runner,
                           out_dir=artifacts_dir)
        results[spec.name] = result
        sections.append(result.format())
        print(f"{spec.name} done in {time.time()-t0:.0f}s", flush=True)
    sections.append(figure2_table())
    sections.append(figure4_table(results["figure10"]))
    sections.append(figure5_table())
    sections.append(figure6_table())
    sections.append(figure7_table())
    text = ("InvisiFence reproduction -- full experiment run\n"
            f"cores={settings.num_cores} ops/thread={settings.ops_per_thread} "
            f"seeds={settings.seeds} warmup={settings.warmup_fraction}\n\n"
            + "\n\n".join(sections) + "\n")
    with open(out_path, "w") as handle:
        handle.write(text)
    print(f"total {time.time()-start:.0f}s -> {out_path} "
          f"(+ JSON/CSV artifacts under {artifacts_dir}/)")

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default="results/full_run.txt")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for missing cells")
    parser.add_argument("--cache", default="results/cache",
                        help="result cache URL (dir://PATH, sqlite://FILE) or "
                             "directory path ('' disables caching)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale (4 cores, 800 ops) instead of the "
                             "full 16-core run")
    parser.add_argument("--artifacts-dir", default="results",
                        help="where per-study JSON/CSV artifacts are written")
    args = parser.parse_args()
    main(args.out, jobs=args.jobs, cache_url=args.cache, quick=args.quick,
         artifacts_dir=args.artifacts_dir)
