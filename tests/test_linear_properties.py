"""Property tests: closed-form coefficient vectors against the recurrence."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cpvi.linear import closed_form_vectors, recurrence_vectors
from cpvi.params import sample_generic, sample_rational_generic

RANKS = st.integers(min_value=1, max_value=4)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
DEPTHS = st.integers(min_value=0, max_value=10)
# derandomized so that a tier-1 run is reproducible
CASES = settings(max_examples=40, deadline=None, derandomize=True)


@CASES
@given(n=RANKS, seed=SEEDS, depth=DEPTHS)
def test_closed_form_equals_recurrence_exactly(n, seed, depth):
    p = sample_rational_generic(n, seed)
    for k in range(n + 1):
        assert closed_form_vectors(p, k, depth) == recurrence_vectors(p, k, depth)


@CASES
@given(n=RANKS, seed=SEEDS, depth=DEPTHS)
def test_float_closed_form_matches_recurrence(n, seed, depth):
    p = sample_generic(n, seed)
    for k in range(n + 1):
        cf = np.array(closed_form_vectors(p, k, depth), dtype=complex)
        rec = np.array(recurrence_vectors(p, k, depth), dtype=complex)
        scale = np.maximum(np.abs(cf), 1.0)
        assert np.max(np.abs(rec - cf) / scale) < 1e-12
