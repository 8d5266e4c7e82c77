"""Golden-table regression tests for every registered study.

The golden files under ``tests/golden/`` were captured from the driver
``format()`` output *before* the experiments layer was ported onto the
declarative study framework; these tests assert that every table built
through :func:`repro.studies.run_study` still reproduces that output
byte-for-byte, at the miniature scales below.

To regenerate after an intentional output change::

    PYTHONPATH=src python tests/test_golden_tables.py --regen
"""

import sys
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentSettings,
    cov_timeout_study,
    scaling_study,
    scenario_study,
    store_buffer_study,
)
from repro.studies import run_study
from repro.studies.runner import StudyRunner

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Figures 1/8/9/10/11/12 and both ablations share one runner at this scale
#: (two seeds so the mean-CI path is exercised, not just single-sample means).
FIG_SETTINGS = ExperimentSettings.quick(num_cores=4, ops_per_thread=800,
                                        seeds=(1, 2),
                                        workloads=("apache", "barnes"))
ABLATION_SIZES = (1, 4, 16)
ABLATION_TIMEOUTS = (0, 2000)

SCALING_SETTINGS = ExperimentSettings(num_cores=4, ops_per_thread=400,
                                      seeds=(1,),
                                      workloads=("false-sharing-storm",))
SCALING_CORE_COUNTS = (2, 4)

SCENARIO_SETTINGS = ExperimentSettings(
    num_cores=4, ops_per_thread=800, seeds=(1,),
    workloads=("handoff-pipeline", "false-sharing-storm"))


def build_all_tables():
    """Every study's formatted output at the golden scales, as {name: text}."""
    runner = StudyRunner(FIG_SETTINGS)
    tables = {}
    for name in ("figure1", "figure8", "figure9", "figure10", "figure11",
                 "figure12"):
        tables[name] = run_study(name, FIG_SETTINGS,
                                 study_runner=runner).format()
    tables["ablation_sb"] = run_study(
        store_buffer_study("apache", ABLATION_SIZES), FIG_SETTINGS,
        study_runner=runner).format()
    tables["ablation_cov"] = run_study(
        cov_timeout_study("apache", ABLATION_TIMEOUTS), FIG_SETTINGS,
        study_runner=runner).format()
    tables["scaling"] = run_study(
        scaling_study(SCALING_CORE_COUNTS,
                      scenarios=SCALING_SETTINGS.workloads),
        SCALING_SETTINGS).format()
    tables["scenarios"] = run_study(scenario_study(scenarios=None),
                                    SCENARIO_SETTINGS).format()
    return tables


DRIVERS = ("figure1", "figure8", "figure9", "figure10", "figure11", "figure12",
           "ablation_sb", "ablation_cov", "scaling", "scenarios")


@pytest.fixture(scope="module")
def tables():
    return build_all_tables()


@pytest.mark.parametrize("name", DRIVERS)
def test_driver_output_matches_golden(tables, name):
    golden = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert tables[name] == golden, (
        f"{name} format() output changed; if intentional, regenerate with "
        f"'PYTHONPATH=src python tests/test_golden_tables.py --regen'")


def _regen():
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, text in build_all_tables().items():
        path = GOLDEN_DIR / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: python tests/test_golden_tables.py --regen")
    _regen()
