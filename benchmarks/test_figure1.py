"""Benchmark: regenerate Figure 1 (ordering stalls in conventional SC/TSO/RMO)."""

from conftest import emit
from repro.studies import run_study


def test_figure1(settings, study_runner):
    result = run_study("figure1", settings, study_runner=study_runner)
    emit(result.format())

    # Qualitative shape (paper Figure 1): ordering stalls shrink as the
    # consistency model is relaxed, and the synchronisation-heavy web
    # workloads stall far more under RMO than the scientific codes.
    for workload in settings.workloads:
        sc = result.total(workload, "sc")
        tso = result.total(workload, "tso")
        rmo = result.total(workload, "rmo")
        assert sc > tso, f"{workload}: SC should stall more than TSO"
        assert tso >= rmo * 0.9, f"{workload}: TSO should stall at least as much as RMO"
        assert sc > 5.0, f"{workload}: SC ordering stalls should be significant"
    assert result.total("apache", "rmo") > result.total("barnes", "rmo")
    assert result.total("apache", "rmo") > result.total("ocean", "rmo")
    # Scientific workloads show only a few percent of ordering stalls under RMO.
    assert result.total("barnes", "rmo") < 10.0
    assert result.total("ocean", "rmo") < 10.0
