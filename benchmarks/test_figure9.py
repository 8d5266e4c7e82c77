"""Benchmark: regenerate Figure 9 (runtime breakdowns normalised to SC)."""

from conftest import emit
from repro.studies import run_study


def test_figure9(settings, study_runner):
    result = run_study("figure9", settings, study_runner=study_runner)
    emit(result.format())

    for workload in settings.workloads:
        # The baseline bar is 100% by construction.
        assert abs(result.total(workload, "sc") - 100.0) < 1e-6
        # Conventional relaxed models shorten the bar.
        assert result.total(workload, "rmo") <= result.total(workload, "tso") * 1.02
        assert result.total(workload, "tso") <= 100.0 + 1e-6
        # InvisiFence removes nearly all SB-full / SB-drain time relative to
        # the conventional implementation of the same model.
        for invisi, conventional in (("invisi_sc", "sc"), ("invisi_tso", "tso"),
                                     ("invisi_rmo", "rmo")):
            inv = result.breakdowns[workload][invisi]
            conv = result.breakdowns[workload][conventional]
            inv_stalls = inv["sb_full"] + inv["sb_drain"]
            conv_stalls = conv["sb_full"] + conv["sb_drain"]
            assert inv_stalls <= max(1.0, 0.5 * conv_stalls), (workload, invisi)
            # The violation component stays small for selective speculation.
            assert inv["violation"] <= 12.0, (workload, invisi)
        # And the InvisiFence bar is never taller than the conventional bar.
        assert result.total(workload, "invisi_rmo") <= result.total(workload, "rmo") * 1.02
