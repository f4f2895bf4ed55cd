"""Generalized and confluent hypergeometric series and their operators.

A series spec holds the upper parameters a_0..a_m and the lower
parameters b_1..b_n; term i is prod (a)_i / prod (b)_i * t^i / i!.  The
defining operator in delta = t d/dt is

    delta (delta + b_1 - 1) ... (delta + b_n - 1)  -  t (delta + a_0) ... (delta + a_m),

whose Frobenius recursion forces the factorial: the leading delta factor
contributes the 1/i, for confluent series (fewer upper than lower
parameters) as well.  The bare product series without the factorial is
the spec with one more upper parameter 1, since (1)_i = i!.

Derivatives come from the contiguous relation
d/dt F(a; b; t) = (prod a / prod b) F(a + 1; b + 1; t) (DLMF 16.3.1).
There is one summation loop, :func:`_contiguous_sums`: :func:`eval_series`
is its case without levels, and the branch functions of a linear system,
which are contiguous levels of one base series, are its case with them.
There is one level rule, :func:`_level_weights`: the loop's level terms,
the level prefactors and the level coefficient tables of ``linear`` all
come from it.  Every sum stops at the one relative tolerance
``SERIES_RTOL``.

The term ratio and the level rule each take an index that is a scalar or
a numpy index array, and are one rule either way: the summation loop
forms its terms one index at a time, and the coefficient tables
(:func:`series_coefficients`, ``linear.fundamental_solution``) take a
whole index range in one array pass.  Their resonance test reads either,
and reports the first index that fails it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

MAX_TERMS = 100_000
SERIES_RTOL = 1e-12         # relative tolerance of the stopping rule of every sum
_CONVERGED_RUN = 3          # consecutive small terms required by the stopping rule
_DENOM_FLOOR = 1e-250


class SeriesError(ValueError):
    """Series undefined or not summable at the requested point."""


def pochhammer(a, i: int):
    """Rising factorial a (a+1) ... (a+i-1); empty product for i = 0.

    Type-preserving: works for complex and Fraction arguments alike.
    """
    if i < 0:
        raise ValueError("pochhammer order must be nonnegative")
    out = a * 0 + 1
    for m in range(i):
        out = out * (a + m)
    return out


@dataclass(frozen=True)
class HGSpec:
    """Upper/lower parameter lists of a hypergeometric series."""

    upper: tuple
    lower: tuple

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(complex(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(complex(b) for b in self.lower))
        for b in self.lower:
            if b.imag == 0.0 and b.real <= 0.0 and b.real == round(b.real):
                raise SeriesError(f"lower parameter {b} is a nonpositive integer")

    @property
    def growth_exponent(self) -> int:
        """Degree of i in the term ratio: 0 means radius 1, negative entire."""
        return len(self.upper) - len(self.lower) - 1

    def term_ratio(self, i):
        """c_i / c_{i-1} with the t factor left out, for i >= 1: a complex
        for an integer i, an array of them for an index array.  numpy warns
        where an array entry overflows, so the table builders call it under
        ``np.errstate``."""
        # a + (i - 1), not (a + i) - 1, which loses a parameter near 0
        j = i - 1
        num = 1.0 + 0.0j
        for a in self.upper:
            num *= a + j
        den = 1.0 + 0.0j
        for b in self.lower:
            den *= b + j
        den *= i
        # a scalar's test is a Python bool, so the summation loop reduces no array
        small = abs(den) < _DENOM_FLOOR
        if small is not False and (small is True or small.any()):
            raise SeriesError(f"vanishing denominator in term {np.asarray(i)[small][0]} "
                              "(lower parameter resonance)")
        return num / den


def _check_domain(spec: HGSpec, t: complex):
    g = spec.growth_exponent
    if g > 0 and t != 0:
        raise SeriesError("series has zero radius of convergence away from t = 0")
    if g == 0 and abs(t) >= 1.0:
        raise SeriesError(f"series diverges for |t| >= 1 (got |t| = {abs(t):.6g})")


def _contiguous_sums(spec: HGSpec, t: complex, windows=()):
    """Sums at t of the series and of its contiguous levels.

    ``windows`` holds one pair (a_j, b_j) per level j = 1, 2, ...; a_j is
    None where the upper window is absorbed.  Level l multiplies base term
    i by W_l(i) = prod_{j<=l} f_j(i), with f_j(i) = (a_j + i) / (b_j + i),
    or 1 / (b_j + i) for an absorbed window (see :func:`_level_weights`).
    So level l sums to W_l(0) F(l), where F(l) is the series with a_j and
    b_j raised by one for j <= l and the absorbed a_j left out (the term
    ratio of Petkovsek, Wilf & Zeilberger, *A = B*, ch. 3, taken across
    levels).

    Each level stops by the rule of :func:`eval_series` on its own terms
    and sums them with ``math.fsum``; the loop ends once every level has
    stopped.  Returns ([level 0 sum, level 1 sum, ...], terms), where terms
    counts the base terms formed, level 0's count when there are no
    levels.
    """
    rtol = SERIES_RTOL
    t = complex(t)
    _check_domain(spec, t)
    levels = len(windows)
    # level j + 1: its real and imaginary terms, running total, small run
    # and, once stopped, its sum
    ltot = _level_weights(1.0 + 0.0j, windows, 0)[1:]
    lre = [array("d", [w.real]) for w in ltot]
    lim = [array("d", [w.imag]) for w in ltot]
    lrun = [0] * levels
    lsums = [None] * levels
    if t == 0:
        return [1.0 + 0.0j] + ltot, 1
    pending = levels + 1
    value = None
    re, im = array("d", [1.0]), array("d", [0.0])
    total = term = 1.0 + 0.0j
    small_run = 0
    for i in range(1, MAX_TERMS + 1):
        term *= t * spec.term_ratio(i)
        if value is None:
            re.append(term.real)
            im.append(term.imag)
            total += term
            if abs(term) < rtol * abs(total):
                small_run += 1
                if small_run >= _CONVERGED_RUN:
                    value = complex(math.fsum(re), math.fsum(im))
                    pending -= 1
                    if not pending:
                        return [value] + lsums, i + 1
            else:
                small_run = 0
        if not levels:
            continue
        w = term
        for j, (a, b) in enumerate(windows):
            w = _weighted(w, a, b, i)
            if lsums[j] is not None:
                continue
            lre[j].append(w.real)
            lim[j].append(w.imag)
            ltot[j] += w
            # <= rather than <: a level whose weight W_l(0) is 0 (an upper
            # window of exactly 0) has only zero terms and stops on them
            if abs(w) <= rtol * abs(ltot[j]):
                lrun[j] += 1
                if lrun[j] >= _CONVERGED_RUN:
                    lsums[j] = complex(math.fsum(lre[j]), math.fsum(lim[j]))
                    pending -= 1
                    if not pending:
                        return [value] + lsums, i + 1
            else:
                lrun[j] = 0
    raise SeriesError(f"no convergence within {MAX_TERMS} terms at t = {t}")


def _weighted(w, a, b, i):
    """w times the level factor f_j(i) = (a + i) / (b + i), or 1 / (b + i)
    for an absorbed window (a None); raises ``SeriesError`` where b + i
    vanishes.  The one place a level factor is formed, at a scalar i or,
    entry by entry, at an index array i with w a scalar or an array of its
    shape."""
    den = b + i
    small = abs(den) < _DENOM_FLOOR      # tested as in HGSpec.term_ratio
    if small is not False and (small is True or small.any()):
        raise SeriesError(f"vanishing denominator in level factor {np.asarray(i)[small][0]} "
                          "(lower parameter resonance)")
    return w / den if a is None else w * ((a + i) / den)


def _level_weights(w, windows, i) -> list:
    """[w, w W_1(i), w W_2(i), ...]: w carried through the level factors of
    ``windows`` at index i, one :func:`_weighted` step per level.  At
    i = 0 with w = 1 these are the prefactors W_l(0) of the levels; with w
    the base coefficient c_i they are row i of the level coefficients, and
    with w the base coefficients and i their index array they are the
    level columns of a whole table."""
    out = [w]
    for a, b in windows:
        w = _weighted(w, a, b, i)
        out.append(w)
    return out


def eval_series(spec: HGSpec, t: complex):
    """Sum the series at t.  Returns (value, terms_used).

    Stops once three consecutive terms are each below ``SERIES_RTOL``
    (1e-12, the one tolerance of every sum in this module) times the
    running partial sum (guards against even/odd term oscillation); the
    hard cap is ``MAX_TERMS``.  The value is ``math.fsum`` of the real and
    imaginary parts of the terms, so it is correctly rounded whatever the
    cancellation; the plain running total serves the stopping rule only.
    """
    (value,), terms = _contiguous_sums(spec, t)
    return value, terms


def eval_series_jet(spec: HGSpec, t: complex, order: int = 2):
    """Value and the first ``order`` t-derivatives.

    Returns (jet, terms_used) with jet[d] = d-th derivative at t, from the
    contiguous relation d^d/dt^d F(a; b; t) = prod (a)_d / prod (b)_d
    * F(a + d; b + d; t) (DLMF 16.3.1); terms_used is the largest term
    count of the order + 1 sums.
    """
    jet, terms = [], 0
    for d in range(order + 1):
        shifted = HGSpec(tuple(a + d for a in spec.upper), tuple(b + d for b in spec.lower))
        value, used = eval_series(shifted, t)
        for a in spec.upper:
            value *= pochhammer(a, d)
        for b in spec.lower:
            value /= pochhammer(b, d)
        jet.append(value)
        terms = max(terms, used)
    return tuple(jet), terms


def series_coefficients(spec: HGSpec, depth: int) -> np.ndarray:
    """Taylor coefficients c_0..c_depth of the series: the running product
    of the term ratios, all formed in one array pass.  Overflow gives inf
    or nan entries and no warning."""
    coeffs = np.empty(depth + 1, dtype=complex)
    coeffs[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs[1:] = spec.term_ratio(np.arange(1, depth + 1))
        return coeffs.cumprod(out=coeffs)


def _powers(t: complex, count: int) -> np.ndarray:
    """The powers 1, t, ..., t^(count-1) of t, as one complex vector."""
    tpow = np.full(count, complex(t))
    tpow[0] = 1.0
    return tpow.cumprod()


def _operator_polys(upper, lower):
    """P, Q with P(i) c_i = Q(i-1) c_{i-1} the Frobenius recursion.

    P(s) = s prod(s + b - 1) is the delta part of the defining operator,
    Q(s) = prod(s + a) the t-multiplied part.  ``upper[j]`` and
    ``lower[j]`` hold parameter j of every spec of a block, one entry per
    column, so a column of degrees s gives one column per spec.
    """
    def P(s):
        out = s
        for b in lower:
            out = out * (s + b - 1)
        return out

    def Q(s):
        out = 1.0 + 0.0j
        for a in upper:
            out = out * (s + a)
        return out

    return P, Q


def operator_residual(spec: HGSpec, coeffs, t: complex, exponent: complex = 0.0) -> float:
    """Relative defect of the defining operator on a truncated series.

    ``coeffs`` are the coefficients of sum c_i t^(exponent + i).  The
    operator image restricted to the retained degrees is
    sum_i [P(rho+i) c_i - Q(rho+i-1) c_{i-1}] t^i (times t^rho, which drops
    out of the normalisation).  Two readings of it are taken, and the
    larger is returned:

    * coefficient level: max_i |P(rho+i) c_i - Q(rho+i-1) c_{i-1}| over
      the largest of the two terms, the Frobenius recursion checked degree
      by degree, so an error in a high coefficient shows whatever t is;
    * point level: the image's magnitude at t over the largest retained
      monomial entering it.

    Exact formal solutions give rounding-level values; the overflow
    monomial beyond the truncation order is deliberately not charged to
    the residual.  P and Q are evaluated on all degrees at once and the
    image at t is summed with ``math.fsum`` on its real and imaginary
    parts, so the sum is correctly rounded whatever the cancellation.
    This is the one-column case of :func:`_operator_residual_columns`.
    """
    c = np.asarray(coeffs, dtype=complex)
    return _operator_residual_columns((spec,), c[:, None], t, exponent)


def _operator_residual_columns(specs, coeffs: np.ndarray, t: complex, exponent: complex) -> float:
    """Worst :func:`operator_residual` over the columns of a coefficient block.

    Column j of the (depth+1) x len(specs) array ``coeffs`` is a series at
    ``exponent`` read in the operator of ``specs[j]``; the specs have the
    same numbers of upper and lower parameters, so P and Q of every column
    come from one pass over the block.
    """
    if coeffs.shape[0] == 0:
        return 0.0
    P, Q = _operator_polys(np.array([sp.upper for sp in specs]).T,
                           np.array([sp.lower for sp in specs]).T)
    s = (complex(exponent) + np.arange(coeffs.shape[0]))[:, None]
    lead = P(s) * coeffs
    lag = np.zeros_like(lead)
    lag[1:] = Q(s[1:] - 1) * coeffs[:-1]
    defect = np.abs(lead - lag).max(axis=0)
    scale = np.maximum(np.abs(lead).max(axis=0), np.abs(lag).max(axis=0))
    tpow = _powers(t, coeffs.shape[0])[:, None]
    lead *= tpow
    lag *= tpow
    image = (lead - lag).T
    point_scale = np.maximum(np.abs(lead).max(axis=0), np.abs(lag).max(axis=0))
    worst = np.zeros(coeffs.shape[1])      # a column of scale 0 reads 0
    for j in np.flatnonzero(scale):
        worst[j] = defect[j] / scale[j]
        if point_scale[j] != 0.0:
            point = complex(math.fsum(image[j].real), math.fsum(image[j].imag))
            worst[j] = max(worst[j], abs(point) / point_scale[j])
    return float(worst.max())              # np.max keeps a NaN column


def ode_residual(spec: HGSpec, t: complex) -> float:
    """Residual of the spec's own series in its defining operator at t.

    The series is truncated by the same rule as :func:`eval_series`; the
    residual is then the operator's relative cancellation failure on the
    retained terms (see :func:`operator_residual`).
    """
    t = complex(t)
    _check_domain(spec, t)
    if t == 0:
        return 0.0
    value, terms = eval_series(spec, t)
    coeffs = series_coefficients(spec, terms - 1)
    return operator_residual(spec, coeffs, t)


def riemann_scheme(spec: HGSpec) -> dict:
    """Local exponents of the defining Fuchsian operator at 0, 1, infinity.

    Only meaningful for the balanced case (n+1 upper, n lower), whose
    singular points are exactly {0, 1, infinity}.  At t=1 the non-trivial
    exponent is sum(lower) - sum(upper); together with {0..n-1} there,
    {0, 1-b_i} at the origin and the upper parameters at infinity, the
    grand total is n(n+1)/2 as the residue theorem for the trace demands.
    """
    if spec.growth_exponent != 0:
        raise SeriesError("exponent scheme defined for the balanced (Fuchsian) case only")
    n = len(spec.lower)
    at_zero = [0.0 + 0.0j] + [1.0 - b for b in spec.lower]
    at_one = [complex(k) for k in range(n)]
    at_one.append(sum(spec.lower, 0.0 + 0.0j) - sum(spec.upper, 0.0 + 0.0j))
    at_inf = list(spec.upper)
    return {"zero": at_zero, "one": at_one, "infinity": at_inf}
