"""Benchmark: regenerate Figure 11 (ASO vs InvisiFence, 1 and 2 checkpoints)."""

from conftest import emit
from repro.studies import run_study


def test_figure11(settings, study_runner):
    result = run_study("figure11", settings, study_runner=study_runner)
    emit(result.format())

    # Qualitative shape (paper Section 6.4): the three configurations are
    # close -- ASO and InvisiFence-Selective both eliminate essentially all
    # ordering stalls; ASO's periodic checkpoints give it at most a small
    # edge over single-checkpoint InvisiFence, and a second checkpoint closes
    # that gap.
    aso = result.average_total("aso_sc")
    one = result.average_total("invisi_sc")
    two = result.average_total("invisi_sc_2ckpt")
    assert abs(aso - 100.0) < 1e-6
    assert one < 125.0, "single-checkpoint InvisiFence should be close to ASO"
    assert two <= one + 2.0, "a second checkpoint should not hurt"

    for workload in settings.workloads:
        values = result.breakdowns[workload]
        for config in ("aso_sc", "invisi_sc", "invisi_sc_2ckpt"):
            stalls = values[config]["sb_full"] + values[config]["sb_drain"]
            # All three are store-wait-free designs.
            assert stalls < 20.0, (workload, config)
