"""Property tests: closed-form coefficient vectors against the recurrence,
the back substitution that the recurrence solves by, and the branch
windows that the closed form and the assembly share."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cpvi.linear import (ResonanceError, _arithmetic, _back_substitute, _branch_windows,
                         closed_form_vectors, recurrence_vectors)
from cpvi.params import ParameterSet, integer_windows, sample_generic, sample_rational_generic

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


SIZES = st.integers(min_value=1, max_value=6)
# each row's remainder over its pivot, as a Fraction set and a complex set take it
CARRY = _arithmetic(sample_rational_generic(1, seed=0)).over
DIVIDE = _arithmetic(sample_generic(1, seed=0)).over
SMALL = st.integers(min_value=-9, max_value=9)


@st.composite
def integer_systems(draw):
    """Upper-triangular integer rows, an integer shift and a right-hand side."""
    m = draw(SIZES)
    rows = [[draw(SMALL) if j >= i else 0 for j in range(m)] for i in range(m)]
    return rows, draw(SMALL), [draw(SMALL) for _ in range(m)]


def _shifted_product(rows, shift, v):
    """(A + shift I) v in the entries' own arithmetic."""
    return [sum(a * x for a, x in zip(row, v)) + shift * v[i] for i, row in enumerate(rows)]


@CASES
@given(system=integer_systems())
def test_fraction_free_solve_is_exact(system):
    rows, shift, rhs = system
    zero = [i for i, row in enumerate(rows) if row[i] + shift == 0]
    if zero:
        # the solve runs from the last row up and stops at the first zero pivot
        with pytest.raises(ResonanceError, match=f"vanishing recurrence pivot at row {zero[-1]}$"):
            _back_substitute(rows, rhs, shift, CARRY)
        return
    v, den = _back_substitute(rows, rhs, shift, CARRY)
    assert all(type(x) is int for x in v) and type(den) is int
    assert _shifted_product(rows, shift, v) == [den * b for b in rhs]


@CASES
@given(system=integer_systems(), last=SMALL.filter(bool))
def test_fraction_free_kernel_vector(system, last):
    rows, _, _ = system
    rows[-1][-1] = 0
    zero = [i for i, row in enumerate(rows[:-1]) if row[i] == 0]
    if zero:
        message = f"kernel not one-dimensional\\) at row {zero[-1]}$"
        with pytest.raises(ResonanceError, match=message):
            _back_substitute(rows, [0] * len(rows), 0, CARRY, last=last)
        return
    v, den = _back_substitute(rows, [0] * len(rows), 0, CARRY, last=last)
    assert _shifted_product(rows, 0, v) == [0] * len(rows)
    assert Fraction(v[-1], den) == last


ENTRIES = st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False)
PIVOTS = st.builds(cmath.rect, st.floats(min_value=1, max_value=3),
                   st.floats(min_value=-math.pi, max_value=math.pi))


@st.composite
def complex_systems(draw):
    """Upper-triangular complex rows whose pivots under an integer shift
    have modulus 1..3, the shift, and a right-hand side."""
    m, shift = draw(SIZES), draw(SMALL)
    rows = [[(draw(PIVOTS) - shift if j == i else draw(ENTRIES)) if j >= i else 0j
             for j in range(m)] for i in range(m)]
    return rows, shift, [draw(ENTRIES) for _ in range(m)]


@CASES
@given(system=complex_systems())
def test_dividing_solve_on_complex_rows(system):
    rows, shift, rhs = system
    v, den = _back_substitute(rows, rhs, shift, DIVIDE)
    assert den == 1
    ref = np.linalg.solve(np.array(rows) + shift * np.eye(len(rows)), np.array(rhs))
    assert np.linalg.norm(np.array(v) - ref) <= 1e-12 * np.linalg.norm(ref)


@CASES
@given(system=integer_systems())
def test_dividing_solve_stops_at_the_same_pivot(system):
    rows, shift, rhs = system
    zero = [i for i, row in enumerate(rows) if row[i] + shift == 0]
    if not zero:
        v, den = _back_substitute(rows, [complex(b) for b in rhs], shift, DIVIDE)
        exact, exact_den = _back_substitute(rows, rhs, shift, CARRY)
        assert np.allclose(v, np.array(exact) / exact_den, rtol=1e-12, atol=1e-12)
        return
    with pytest.raises(ResonanceError, match=f"vanishing recurrence pivot at row {zero[-1]}$"):
        _back_substitute(rows, [complex(b) for b in rhs], shift, DIVIDE)


FRACTIONS = st.fractions(min_value=-2, max_value=2, max_denominator=40)
LEVELS = [(n, r) for n in (1, 2, 3, 4) for r in range(n + 2)]


def level_fraction_set(data, n, r):
    """A rank-n set of Fraction entries with mixed denominators at level r:
    alpha_{2i} = 0 for i < r, and the last entry makes the sum 1."""
    alpha = [Fraction(0) if i % 2 == 0 and i < 2 * r else data.draw(FRACTIONS)
             for i in range(2 * n + 1)]
    alpha.append(1 - sum(alpha))
    return ParameterSet(n, tuple(alpha), Fraction(0), r)


@pytest.mark.parametrize("n,r", LEVELS)
@settings(CASES, max_examples=10)
@given(data=st.data())
def test_integer_branch_windows_are_scaled_windows(n, r, data):
    p = level_fraction_set(data, n, r)
    d, window = integer_windows(p)
    scale = lambda ws: [None if w is None else d * w for w in ws]
    for k in range(n + 1):
        upper, lower = _branch_windows(p, k, window)
        exact_upper, exact_lower = _branch_windows(p, k, p.partial_sum)
        assert sum(a is None for a in upper) == r
        assert upper == scale(exact_upper) and lower == scale(exact_lower)
        assert all(type(w) is int for w in upper + lower if w is not None)
