"""Property tests: every word followed by its reverse acts as the identity."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from cpvi.params import sample_generic
from cpvi.symmetry import SingularTransformError, sample_regular_state, word_deviation

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
# derandomized so that a tier-1 run is reproducible
CASES = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def words(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    word = draw(st.lists(st.integers(min_value=0, max_value=2 * n + 1), min_size=1, max_size=6))
    return n, word


@CASES
@given(case=words(), seed=SEEDS)
def test_word_then_its_reverse_is_the_identity(case, seed):
    n, word = case
    p = sample_generic(n, seed)
    x, y = sample_regular_state(n, np.random.default_rng(seed), 0.4)
    try:
        dev = word_deviation(word + word[::-1], x, y, p, 0.4)
    except SingularTransformError:
        assume(False)
    assert dev <= 1e-12
