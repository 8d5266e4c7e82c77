"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one figure of the paper with
:func:`repro.studies.run_study`.  All modules share one
:class:`~repro.studies.runner.StudyRunner` (session scope) so that
configurations appearing in several figures (e.g. the conventional SC
baseline) are only simulated once per benchmark session.

Scale is controlled by environment variables so the same harness serves
both a quick CI-style run and a fuller reproduction:

* ``REPRO_BENCH_CORES``   (default 8)
* ``REPRO_BENCH_OPS``     (default 4000 operations per thread)
* ``REPRO_BENCH_SEEDS``   (default "1", comma-separated list)
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.common import ExperimentSettings
from repro.studies.runner import StudyRunner
from repro.workloads.presets import workload_names


def _settings_from_env() -> ExperimentSettings:
    cores = int(os.environ.get("REPRO_BENCH_CORES", "8"))
    ops = int(os.environ.get("REPRO_BENCH_OPS", "4000"))
    seeds = tuple(int(s) for s in os.environ.get("REPRO_BENCH_SEEDS", "1").split(","))
    return ExperimentSettings(num_cores=cores, ops_per_thread=ops, seeds=seeds,
                              workloads=tuple(workload_names()))


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    return _settings_from_env()


@pytest.fixture(scope="session")
def study_runner(settings) -> StudyRunner:
    return StudyRunner(settings)


def emit(text: str) -> None:
    """Print a figure table so it appears in the benchmark output."""
    print()
    print(text)
