"""Benchmarks: the paper's sensitivity studies (Section 6.1 / 6.6).

These are not numbered figures, but the paper leans on both results: an
eight-entry coalescing store buffer is enough for single-checkpoint
InvisiFence, and the commit-on-violate timeout is generous enough that its
exact value barely matters once it covers a store-miss latency.
"""

from conftest import emit
from repro.experiments.ablation import cov_timeout_study, store_buffer_study
from repro.studies import run_study


def test_store_buffer_capacity_ablation(settings, study_runner):
    result = run_study(store_buffer_study("apache", (1, 2, 4, 8, 32)), settings,
                       study_runner=study_runner)
    emit(result.format())

    relative = result.relative_runtime()
    # A one-entry buffer is clearly insufficient; eight entries perform within
    # a few percent of the largest buffer in the sweep (the paper's claim --
    # our synthetic apache carries a somewhat higher store-miss rate, so the
    # tolerance is a little wider than the paper's "close to unbounded").
    assert relative[1] > relative[8] + 0.10
    assert relative[8] <= 1.10
    assert result.smallest_sufficient_capacity(tolerance=0.10) <= 8
    # Capacity pressure shows up as SB-full cycles for the tiny buffer.
    assert result.sb_full[1] >= result.sb_full[32]


def test_cov_timeout_ablation(settings, study_runner):
    result = run_study(cov_timeout_study("apache", (0, 250, 4000, 16000)), settings,
                       study_runner=study_runner)
    emit(result.format())

    # The abort-immediately baseline discards work; a 4000-cycle deferral
    # window removes most violation cycles (Section 6.6), and growing it
    # further changes little.
    aborts_baseline, _, violation_baseline = result.outcomes[0]
    _, cov_commits_4k, violation_4k = result.outcomes[4000]
    assert violation_4k <= violation_baseline
    assert cov_commits_4k > 0
    assert result.cycles[4000] <= result.cycles[0] * 1.02
    assert abs(result.cycles[16000] - result.cycles[4000]) <= 0.1 * result.cycles[4000]
