"""Benchmark: regenerate Figure 8 (speedups over conventional SC)."""

from conftest import emit
from repro.studies import run_study


def test_figure8(settings, study_runner):
    result = run_study("figure8", settings, study_runner=study_runner)
    emit(result.format())

    # Qualitative shape (paper Section 6.2/6.3): relaxing the model helps,
    # and every InvisiFence-Selective variant at least matches conventional
    # RMO, with Invisi_rmo the best configuration on average.
    assert result.average_speedup("tso") > 1.05
    assert result.average_speedup("rmo") >= result.average_speedup("tso")
    assert result.average_speedup("invisi_sc") >= result.average_speedup("rmo") * 0.98
    assert result.average_speedup("invisi_rmo") >= result.average_speedup("invisi_sc") * 0.99
    assert result.average_speedup("invisi_rmo") >= result.average_speedup("rmo")

    for workload in settings.workloads:
        speedups = result.speedups[workload]
        assert speedups["sc"] == 1.0
        # InvisiFence never loses badly to the conventional implementation of
        # the same model (performance-transparent ordering).
        assert speedups["invisi_sc"] >= 0.95
        assert speedups["invisi_rmo"] >= speedups["rmo"] * 0.95
