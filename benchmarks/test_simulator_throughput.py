"""Benchmark: raw simulator throughput (not a paper figure).

Times the simulation of one apache trace under the three kinds of
controller, so performance regressions in the engine itself are visible
independently of the figure harness; the campaign benchmarks time the
same cells through the executor cold (every cell simulated) and cached
(every cell a disk hit), so executor overhead and cache regressions show
up in the perf trajectory too.

The ``*_throughput`` benchmarks time the default compiled/batched fast
kernel; the ``*_reference_throughput`` ones time the retained
one-event-per-op reference path, so the fast-path gain stays measurable
in every run.  (The reference path shares the data-structure
optimisations -- O(1) store-buffer timing queries, lazy cache sets, the
latency matrix -- so the fast/reference ratio *understates* the speedup
over the pre-refactor kernel.)  ``repro bench`` writes the same
measurements to ``BENCH_kernel.json`` for the committed perf trajectory.
"""

import pytest

from repro.campaign import CampaignExecutor, DirectoryBackend, expand_jobs
from repro.config import ConsistencyModel, SpeculationConfig, SpeculationMode, paper_config
from repro.engine.simulator import simulate
from repro.experiments.common import ExperimentSettings
from repro.workloads.registry import build_trace

_CORES = 4
_OPS = 2000


@pytest.fixture(scope="module")
def trace():
    return build_trace("apache", num_threads=_CORES, ops_per_thread=_OPS, seed=3)


def _config(mode: SpeculationMode):
    if mode is SpeculationMode.NONE:
        spec = SpeculationConfig()
    elif mode is SpeculationMode.CONTINUOUS:
        spec = SpeculationConfig(mode=mode, num_checkpoints=2)
    else:
        spec = SpeculationConfig(mode=mode)
    return paper_config(ConsistencyModel.SC, spec, num_cores=_CORES)


def test_conventional_sc_throughput(benchmark, trace):
    result = benchmark(simulate, _config(SpeculationMode.NONE), trace)
    assert result.runtime > 0


def test_invisifence_selective_throughput(benchmark, trace):
    result = benchmark(simulate, _config(SpeculationMode.SELECTIVE), trace)
    assert result.runtime > 0


def test_invisifence_continuous_throughput(benchmark, trace):
    result = benchmark(simulate, _config(SpeculationMode.CONTINUOUS), trace)
    assert result.runtime > 0


# -- retained reference engine (differential baseline) ------------------------


def test_conventional_sc_reference_throughput(benchmark, trace):
    result = benchmark(simulate, _config(SpeculationMode.NONE), trace,
                       engine="reference")
    assert result.runtime > 0


def test_invisifence_selective_reference_throughput(benchmark, trace):
    result = benchmark(simulate, _config(SpeculationMode.SELECTIVE), trace,
                       engine="reference")
    assert result.runtime > 0


def test_invisifence_continuous_reference_throughput(benchmark, trace):
    result = benchmark(simulate, _config(SpeculationMode.CONTINUOUS), trace,
                       engine="reference")
    assert result.runtime > 0


# -- campaign executor: cold vs cached ---------------------------------------

_SWEEP_SETTINGS = ExperimentSettings.quick(num_cores=_CORES, ops_per_thread=_OPS,
                                           workloads=("apache",), seeds=(3,))
_SWEEP_CELLS = expand_jobs(("sc", "invisi_sc"), ("apache",), (3,))


def test_campaign_cold_throughput(benchmark):
    """Every round simulates every cell (no cache attached)."""
    executor = CampaignExecutor(_SWEEP_SETTINGS, jobs=1)
    results = benchmark(executor.run, _SWEEP_CELLS)
    assert executor.last_report.simulated == len(_SWEEP_CELLS)
    assert all(result.runtime > 0 for result in results)


def test_campaign_cached_throughput(benchmark, tmp_path):
    """Every round serves every cell from the on-disk result cache."""
    executor = CampaignExecutor(_SWEEP_SETTINGS, jobs=1,
                                cache=DirectoryBackend(tmp_path / "cache"))
    executor.run(_SWEEP_CELLS)  # warm the cache
    results = benchmark(executor.run, _SWEEP_CELLS)
    assert executor.last_report.simulated == 0
    assert executor.last_report.cache_hits == len(_SWEEP_CELLS)
    assert all(result.runtime > 0 for result in results)
