"""Benchmark: regenerate Figure 10 (% of cycles spent speculating)."""

from conftest import emit
from repro.studies import run_study


def test_figure10(settings, study_runner):
    result = run_study("figure10", settings, study_runner=study_runner)
    emit(result.format())

    # Qualitative shape (paper Figure 10 / Figure 4): the weaker the enforced
    # model, the less time InvisiFence-Selective spends speculating.
    assert result.average("invisi_rmo") < result.average("invisi_tso") + 1.0
    assert result.average("invisi_tso") <= result.average("invisi_sc") + 1.0
    assert result.average("invisi_sc") > result.average("invisi_rmo")

    for workload in settings.workloads:
        values = result.speculation_pct[workload]
        for config, pct in values.items():
            assert 0.0 <= pct <= 100.0, (workload, config)
        assert values["invisi_rmo"] <= values["invisi_sc"] + 1.0

    # The scientific workloads barely speculate when enforcing RMO.
    assert result.speculation_pct["barnes"]["invisi_rmo"] < 20.0
    assert result.speculation_pct["dss-db2"]["invisi_rmo"] < 20.0
