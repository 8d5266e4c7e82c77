"""TraceRng draws match numpy's Generator value for value.

Trace generation draws from each stream's PCG64 raw outputs through
:class:`repro.workloads.generator.TraceRng` instead of numpy's
``Generator``.  Every trace is pinned by ``tests/golden/traces.txt``; these
tests pin the draws themselves: a TraceRng and a twin ``Generator`` seeded
alike must agree on every draw of any interleaving of uniform tests,
bounded draws and geometric draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.generator import TraceRng

#: bounds at the edges of the 32-bit path: one value (no draw), powers of
#: two, a bound that rejects about half its draws, and the full range.
EDGE_BOUNDS = (1, 2, 3, 7, 8, 2 ** 31 + 11, 2 ** 32 - 1, 2 ** 32)

#: geometric p on numpy's search path (p >= 1/3, incl. 1.0) and on its
#: inversion path (p < 1/3).
EDGE_PS = (1.0, 0.5, 1.0 / 3.0, 0.25, 0.01)

draws = st.one_of(
    st.tuples(st.just("chance"), st.floats(0.0, 1.0)),
    st.tuples(st.just("below"),
              st.sampled_from(EDGE_BOUNDS) | st.integers(1, 2 ** 32)),
    st.tuples(st.just("geometric"),
              st.sampled_from(EDGE_PS) | st.floats(1e-6, 1.0)),
)


def twins(seed):
    return TraceRng(np.random.default_rng(seed)), np.random.default_rng(seed)


@given(st.integers(0, 2 ** 63), st.lists(draws, max_size=80))
@settings(max_examples=300, deadline=None)
def test_draws_match_numpy(seed, steps):
    ours, reference = twins(seed)
    for kind, arg in steps:
        if kind == "chance":
            assert ours.chance(arg) == (reference.random() < arg)
        elif kind == "below":
            assert ours.below(arg) == int(reference.integers(0, arg))
        else:
            assert ours.geometric(arg) == int(reference.geometric(arg))
    # Still aligned: the next raw output is the same.
    assert ours.raw() == reference.bit_generator.random_raw()


@pytest.mark.parametrize("n", EDGE_BOUNDS)
def test_long_runs_of_one_bound_match(n):
    ours, reference = twins(n)
    assert [ours.below(n) for _ in range(500)] == [
        int(reference.integers(0, n)) for _ in range(500)]


@pytest.mark.parametrize("n", (0, -3, 2 ** 32 + 1))
def test_below_rejects_bounds_outside_the_32_bit_range(n):
    ours, reference = twins(11)
    with pytest.raises(ValueError):
        ours.below(n)
    # Nothing was drawn.
    assert ours.below(1000) == int(reference.integers(0, 1000))
