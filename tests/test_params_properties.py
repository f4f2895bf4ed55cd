"""Property tests: cyclic window sums on exact Fraction sets, the JSON
round trip, and the margin of sampled sets."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cpvi.params import ParameterSet, genericity_margin, integer_windows, sample_degenerate

# derandomized so that a tier-1 run is reproducible
CASES = settings(max_examples=60, deadline=None, derandomize=True)
ENTRIES = st.fractions(min_value=-2, max_value=2, max_denominator=40)


@st.composite
def fraction_sets(draw):
    """A rank-1..4 set of Fraction entries with mixed denominators and sum 1."""
    n = draw(st.integers(min_value=1, max_value=4))
    alpha = draw(st.lists(ENTRIES, min_size=2 * n + 1, max_size=2 * n + 1))
    return ParameterSet(n, tuple(alpha) + (1 - sum(alpha, Fraction(0)),), Fraction(0))


STARTS = st.integers(min_value=-30, max_value=30)
LENGTHS = st.integers(min_value=-1, max_value=30)


@CASES
@given(p=fraction_sets(), k=STARTS, l=LENGTHS, m=LENGTHS)
def test_windows_add(p, k, l, m):
    assert p.partial_sum(k, l) + p.partial_sum(k + l + 1, m) == p.partial_sum(k, l + m + 1)


@CASES
@given(p=fraction_sets(), k=STARTS, l=LENGTHS, shift=st.integers(min_value=-3, max_value=3))
def test_windows_are_periodic(p, k, l, shift):
    period = 2 * p.n + 2
    assert p.partial_sum(k + shift * period, l) == p.partial_sum(k, l)
    assert p.partial_sum(k, l + period) == p.partial_sum(k, l) + 1      # one more whole period


@CASES
@given(p=fraction_sets(), k=STARTS, l=st.integers(min_value=-3, max_value=30))
def test_integer_windows_are_scaled_partial_sums(p, k, l):
    d, window = integer_windows(p)
    assert window(k, l) == d * p.partial_sum(k, l)


COMPLEX_ENTRIES = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)


@st.composite
def complex_sets(draw):
    """A rank-1..4 complex set at a drawn level r = 0..n+1: alpha_{2i} = 0
    for i < r, and the last entry makes the sum 1."""
    n = draw(st.integers(min_value=1, max_value=4))
    r = draw(st.integers(min_value=0, max_value=n + 1))
    alpha = [0j if i % 2 == 0 and i < 2 * r else draw(COMPLEX_ENTRIES) for i in range(2 * n + 1)]
    alpha.append(1 - sum(alpha))
    return ParameterSet(n, tuple(alpha), draw(COMPLEX_ENTRIES), r)


@CASES
@given(p=complex_sets())
def test_json_round_trip(p):
    assert ParameterSet.from_json(p.to_json()) == p


@CASES
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32 - 1),
       margin=st.floats(min_value=0.001, max_value=0.1))
def test_sampled_sets_meet_their_margin(data, seed, margin):
    n = data.draw(st.integers(min_value=1, max_value=4))
    r = data.draw(st.integers(min_value=0, max_value=n + 1))
    p = sample_degenerate(n, r, seed, margin)
    assert (p.n, p.degeneracy) == (n, r)
    assert genericity_margin(p) >= margin
    assert all(p.alpha[2 * i] == 0 for i in range(r))
