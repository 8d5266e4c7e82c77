"""Benchmark: regenerate Figure 12 (continuous speculation and commit-on-violate)."""

from conftest import emit
from repro.studies import run_study


def test_figure12(settings, study_runner):
    result = run_study("figure12", settings, study_runner=study_runner)
    emit(result.format())

    cont = result.average_total("invisi_cont")
    cov = result.average_total("invisi_cont_cov")
    invisi_rmo = result.average_total("invisi_rmo")

    # Qualitative shape (paper Sections 6.5/6.6):
    # * continuous speculation beats conventional SC on average,
    assert cont < 100.0
    # * but it pays a violation penalty that commit-on-violate removes,
    cont_violation = sum(result.violation_cycles(w, "invisi_cont")
                         for w in settings.workloads)
    cov_violation = sum(result.violation_cycles(w, "invisi_cont_cov")
                        for w in settings.workloads)
    assert cont_violation > 0.0
    assert cov_violation < 0.5 * cont_violation
    assert cov <= cont
    # * and selective speculation enforcing RMO remains the best or tied-best
    #   InvisiFence configuration.
    assert invisi_rmo <= cont + 1.0
    assert invisi_rmo <= cov + 6.0

    for workload in settings.workloads:
        assert abs(result.total(workload, "sc") - 100.0) < 1e-6
        assert result.total(workload, "invisi_cont_cov") <= result.total(workload, "invisi_cont") + 2.0
