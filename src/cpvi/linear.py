"""Linear systems attached to the hierarchy and their series solutions.

The generic specialisation (all momenta and eta zero) of the rank-n
symmetric Hamiltonian turns the position vector into a solution of a
Fuchsian system

    dx/dt = (A0 / t + A1 / (1 - t)) x

with A0 upper triangular and A1 of rank one; the confluent levels replace
A1 / (1 - t) by a constant 0/1 matrix.  One residue-matrix rule builds the
pair at every level r = 0..n+1 (:func:`_residue_matrices`), from window
sums in either arithmetic: complex or Fraction entries, or the integer
windows of the exact recurrence.  The dual (momentum-side) system is the
adjoint -A^T of the level-0 pair except for its row n.  This module also
builds the cyclic gauge transforms and the three independent routes to
the series solutions at t = 0:

* the matrix two-term recurrence, solved exactly by back substitution on
  the triangular structure;
* the closed-form coefficient vectors, products of rising factorials of
  cyclic window sums;
* assembly from hypergeometric series with the branch-dependent
  parameter bookkeeping, one window rule for every confluence level: at
  level r the upper windows starting at the odd slots 2s+1, s < r, are
  absorbed by the time rescaling of the confluence limit and dropped.
  The n+1 branch functions of a branch are contiguous levels of one base
  series: level l is the base series times its level weights W_l(i)
  (:func:`hyperfn._level_weights`).  This one rule makes the coefficient
  tables of :func:`fundamental_solution`, the prefactors of
  :func:`branch_spec` and the one-pass sums of :func:`fundamental_matrix`.

The first two are one loop each, in either arithmetic, and one helper
(:func:`_arithmetic`) picks it from the set's entries: complex entries use
their window sums and divide at once; a Fraction set computes in Python
integers, every window sum an integer numerator over the lcm d of the
denominators (:func:`params.integer_windows`), carries its denominators
and forms one Fraction per entry.  One back substitution
(:func:`_back_substitute`) serves the recurrence in both.

Exponent conventions: branch k of the system carries t^(-w_k) with
w_k = alpha_{2k+2} + ... + alpha_{2n} + alpha_{2n+1} (window sum), the
k-th diagonal entry of -A0 and zero for k = n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Callable, NamedTuple

import numpy as np

from .hyperfn import (HGSpec, SeriesError, _contiguous_sums, _level_weights,
                      _operator_residual_columns, _powers, series_coefficients)
from .params import ParameterSet, integer_windows


class ResonanceError(ArithmeticError):
    """A pivot or Pochhammer denominator vanished: parameters are resonant."""


_PIVOT_FLOOR = 1e-300


# ----------------------------------------------------------------------
# residue matrices


def _residue_matrices(n: int, r: int, window):
    """Nested-list residue matrices (A0, A1) of the level-r system, r = 0..n+1.

    ``window(k, l)`` is the window sum alpha_k + ... + alpha_{k+l}: the
    type-preserving :meth:`ParameterSet.partial_sum`, or d times it in
    integers (:func:`params.integer_windows`).  A0 has -window(2i+2,
    2n-2i-1) on its diagonal; a chain row i < r-1 has a 1 right of the
    diagonal, and every other row holds alpha_{2j+1} in each column j > i.
    At level 0 every row of A1 is (alpha_{2j+1})_j; at r >= 1 the confluent
    A1 has a 1 in column 0 of each row i >= r-1.
    """
    zero = window(0, -1)      # the empty window: 0 in the window's arithmetic
    one = zero + 1
    odd = [window(2 * j + 1, 0) for j in range(n + 1)]
    A0 = [[zero] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        A0[i][i] = -window(2 * i + 2, 2 * n - 2 * i - 1)
        if i < r - 1:
            A0[i][i + 1] = one
        else:
            A0[i][i + 1:] = odd[i + 1:]
    if r == 0:
        return A0, [odd[:] for _ in range(n + 1)]
    return A0, [[one if i >= r - 1 and j == 0 else zero for j in range(n + 1)]
                for i in range(n + 1)]


def _dual_matrices(p: ParameterSet):
    """The level-0 pair's adjoint -A^T, except that every entry of row n is
    alpha_{2n+1}."""
    n = p.n
    return tuple([[-a for a in col] for col in zip(*A)][:n] + [[p.alpha_at(2 * n + 1)] * (n + 1)]
                 for A in _residue_matrices(n, 0, p.partial_sum))


def _as_array(rows):
    return np.array([[complex(v) for v in row] for row in rows], dtype=complex)


@dataclass(frozen=True)
class LinearSystem:
    """Residue-matrix pair with its singularity structure.

    ``kind`` is "fuchsian" (poles at 0, 1, infinity) or "confluent"
    (regular 0, irregular infinity).  ``gauge`` records which branch index
    the analytic series of this system belongs to; the plain position
    system is the k = n member of its own gauge family.
    """

    n: int
    A0: np.ndarray
    A1: np.ndarray
    kind: str
    params: ParameterSet
    gauge: int = 0
    dual: bool = False

    def coefficient(self, t: complex) -> np.ndarray:
        if self.kind == "fuchsian":
            return self.A0 / t + self.A1 / (1.0 - t)
        return self.A0 / t + self.A1

    def residue_spectra(self) -> dict:
        """Eigenvalue data of the residue matrices, read off the structure.

        A0 is triangular (diagonal = exponents at 0); A1 has rank one, so
        the residue -A1 at t=1 contributes n zeros and minus its trace; the
        residue at infinity is A1 - A0, triangular for the position system.
        """
        out = {"zero": np.diag(self.A0).copy()}
        if self.kind == "fuchsian":
            tr = self.A1.trace()
            out["one"] = np.append(np.zeros(self.n, dtype=complex), -tr)
            if not self.dual:
                out["infinity"] = np.diag(self.A1 - self.A0).copy()
            else:
                out["infinity"] = np.linalg.eigvals(self.A1 - self.A0)
        return out


def build_fuchsian(p: ParameterSet) -> LinearSystem:
    """Position-side Fuchsian system of the generic specialisation."""
    A0, A1 = _residue_matrices(p.n, 0, p.partial_sum)
    return LinearSystem(p.n, _as_array(A0), _as_array(A1), "fuchsian", p, gauge=p.n)


def build_dual(p: ParameterSet) -> LinearSystem:
    """Momentum-side system of the dual specialisation."""
    A0, A1 = _dual_matrices(p)
    return LinearSystem(p.n, _as_array(A0), _as_array(A1), "fuchsian", p, gauge=p.n, dual=True)


def build_confluent(p: ParameterSet) -> LinearSystem:
    """System at the parameter set's own level r: confluent for r >= 1, and
    at r = 0 the Fuchsian system of :func:`build_fuchsian`."""
    A0, A1 = _residue_matrices(p.n, p.degeneracy, p.partial_sum)
    kind = "confluent" if p.degeneracy else "fuchsian"
    return LinearSystem(p.n, _as_array(A0), _as_array(A1), kind, p, gauge=p.n)


def branch_exponent(p: ParameterSet, k: int):
    """Exponent -w_k of branch k at t = 0 (zero for k = n)."""
    return -p.partial_sum(2 * k + 2, 2 * p.n - 2 * k - 1)


def gauge_transform(sys: LinearSystem, k: int) -> LinearSystem:
    """Cyclic gauge image of the position system for branch k.

    The transformed residue matrices are those of the original system with
    every alpha index advanced by 2k+2; branch k of the original becomes
    the analytic branch of the image.  k = n reproduces the original
    matrices.
    """
    if sys.kind != "fuchsian" or sys.dual:
        raise ValueError("gauge transform applies to the position-side Fuchsian system")
    if not 0 <= k <= sys.n:
        raise ValueError(f"branch index {k} out of range 0..{sys.n}")
    p, s = sys.params, 2 * k + 2
    A0, A1 = _residue_matrices(sys.n, 0, lambda first, length: p.partial_sum(first + s, length))
    return LinearSystem(sys.n, _as_array(A0), _as_array(A1), "fuchsian", p, gauge=k)


def gauge_matrix(p: ParameterSet, k: int, t: complex) -> np.ndarray:
    """Matrix G_k(t) with x_gauged = G_k(t) x: a t-weighted cyclic shuffle."""
    n = p.n
    w = -complex(branch_exponent(p, k))
    G = np.zeros((n + 1, n + 1), dtype=complex)
    t = complex(t)
    for i in range(n - k):
        G[i, i + k + 1] = 1.0 / t
    for i in range(n - k, n + 1):
        G[i, i - n + k] = 1.0
    return t ** w * G


# ----------------------------------------------------------------------
# series solutions


def _require_nonzero(v, what, row=None):
    """Raise ResonanceError if v is below ``_PIVOT_FLOOR`` in modulus,
    which for an integer means exactly zero."""
    if abs(v) < _PIVOT_FLOOR:
        where = "" if row is None else f" at row {row}"
        raise ResonanceError(f"vanishing {what}{where}")


def _back_substitute(rows, rhs, pivot_shift, over, last=None):
    """Solve (A + pivot_shift I) v = rhs for upper-triangular nested-list A:
    returns (v, den) with solution v / den.

    ``over`` (:class:`_Arithmetic`) puts each row's remainder over its
    pivot: at once (den stays 1), or fraction-free, scaling the other
    entries by the pivot so all stay over one denominator, the product of
    the pivots (E. H. Bareiss, Math. Comp. 22 (1968) 565-578).  With
    ``last`` given, v[-1] is fixed to it and the last row is skipped: rhs
    0, shift 0 and last 1 give the kernel vector of an A whose last
    diagonal entry is 0.
    """
    m = len(rows)
    v, den = list(rhs), 1  # entries still to solve hold their right-hand side
    what = "recurrence pivot"
    if last is not None:
        v[m - 1] = last
        what = "diagonal entry (kernel not one-dimensional)"
    for i in range(m - 1 if last is None else m - 2, -1, -1):
        acc = v[i]
        for j in range(i + 1, m):
            acc = acc - rows[i][j] * v[j]
        pivot = rows[i][i] + pivot_shift
        _require_nonzero(pivot, what, i)
        x, carried = over(acc, pivot)
        if carried != 1:  # a row divided at once scales nothing
            v = [y * carried for y in v]
            den *= carried
        v[i] = x
    return v, den


class _Arithmetic(NamedTuple):
    """The arithmetic of the exact series routes, read once from a set's
    entries by :func:`_arithmetic`."""

    d: int  # the windows' scale: 1, or the lcm of the denominators
    window: Callable  # window(k, l): d times the window sum from slot k + the gauge shift
    over: Callable  # over(num, den) -> (value, carried): (num / den, 1), or (num, den)
    settle: Callable  # settle(v, den): a step's vector as it is, or with its gcd cancelled
    entries: Callable  # entries(nums, dens): nums as they are, or Fractions over dens()


def _arithmetic(p: ParameterSet, shift: int = 0) -> _Arithmetic:
    """Complex entries divide at once; a Fraction set computes in Python
    integers and carries its denominators.  The windows are read ``shift``
    slots on: shift 2k+2 gives those of ``p.shifted(2k+2)``."""
    exact = integer_windows(p)
    if exact is None:
        return _Arithmetic(1, lambda first, length: p.partial_sum(first + shift, length),
                           lambda num, den: (num / den, 1), lambda v, den: (v, den),
                           lambda nums, dens: nums)
    d, window = exact

    def cancel(v, den):
        g = math.gcd(den, *v)
        return [x // g for x in v], den // g

    return _Arithmetic(d, lambda first, length: window(first + shift, length),
                       lambda num, den: (num, den), cancel,
                       lambda nums, dens: list(map(Fraction, nums, dens())))


def recurrence_vectors(p: ParameterSet, k: int, depth: int):
    """Gauge-frame coefficient vectors from the matrix recurrence.

    Solves A0 x_0 = 0 and (A0 - (i+1) I) x_{i+1} = (A0 - A1 - i I) x_i by
    exact back substitution (:func:`_back_substitute`), with the level-0
    residue matrices of ``p.shifted(2k+2)``, read as p's windows 2k+2
    slots on.  In the set's arithmetic (:func:`_arithmetic`) the matrices
    are d A0 and d A1, so the solve runs on d A0 - d(i+1) I with
    right-hand side (d A0 - d A1 - d i I) x_i.  Complex entries (d = 1)
    divide by each pivot at once; a Fraction set keeps each x_i as an
    integer vector over one denominator, reduced by one gcd per step, and
    makes each entry one Fraction.
    """
    n = p.n
    d, window, over, settle, entries = _arithmetic(p, 2 * k + 2)
    A0, A1 = _residue_matrices(n, 0, window)
    # A0 is upper triangular: below its diagonal A0 - A1 is just -A1
    step = [[A0[row][col] - A1[row][col] if col >= row else -A1[row][col]
             for col in range(n + 1)] for row in range(n + 1)]
    zero = window(0, -1)
    x, den = _back_substitute(A0, [zero] * (n + 1), 0, over, last=zero + 1)
    steps = [(x, den)]
    for i in range(depth):
        rhs = []
        for row, coeffs in enumerate(step):
            acc = (-d * i) * x[row]
            for a, v in zip(coeffs, x):
                acc = acc + a * v
            rhs.append(acc)
        x, solved = _back_substitute(A0, rhs, -d * (i + 1), over)
        x, den = settle(x, den * solved)
        steps.append((x, den))
    return [entries(x, lambda: repeat(q)) for x, q in steps]


def _closed_form_components(heads, tail, prev, one):
    """Components m = 0..n of one closed-form vector, or of its integer
    numerators or denominators: the prefix product of the first n-m head
    ratios times tail ratio 0 and the first m tail ratios j >= 1, which are
    ``prev``, the head ratios of the step before, in reverse order."""
    head_prefix = list(accumulate(heads, mul, initial=one))
    # both products start from one; one * tail can differ from tail in a sign of zero
    tail_prefix = accumulate(reversed(prev), mul, initial=one * tail)
    return list(map(mul, reversed(head_prefix), tail_prefix))


def closed_form_vectors(p: ParameterSet, k: int, depth: int):
    """Gauge-frame coefficient vectors from the explicit product formula.

    Component m of the i-th vector is

        prod_{j=0}^{n-1-m} (u_j)_{i+1} / (v_j)_{i+1}
        * prod_{j=0}^{m} (s_j)_i / (r_j)_i

    with u_j, v_j, s_j, r_j the cyclic window sums starting at
    2k-2j+1, 2k-2j, 2k+2j+3 and 2k+2j+2 of lengths 2j+1, 2j+2, 2n-2j+1
    and 2n-2j+2 terms; the j = 0 tail denominator is the full-period sum 1,
    whose rising factorial is the hypergeometric factorial.

    The ratios are carried as running products (the hypergeometric term
    ratio), each advanced by a single factor per depth step: one per head
    window, (u_j)_{i+1} / (v_j)_{i+1}, and one for tail window 0,
    (s_0)_i / (r_0)_i.  Tail window j >= 1 is head window n-j, the same
    cyclic window started one period later, so tail ratio j at step i is
    head ratio n-j at step i-1 and is copied from there.  Component m is
    then the prefix product of the first n-m head ratios times that of the
    first m+1 tail ratios, so the cost is O(depth * n) products instead of
    rebuilding every rising factorial.  Each head denominator factor is
    checked for resonance, which covers the tail factors j >= 1 too, and
    r_0 + i is never 0.

    The set's entries pick the arithmetic (:func:`_arithmetic`): the
    windows are d times the window sums and each ratio advances by the
    factor d u_j + d i over d v_j + d i.  Complex entries divide each
    ratio by its factor at once, and the denominators beside stay 1.  A
    Fraction set is computed in integers: each ratio is an unreduced
    integer numerator over an integer denominator, and each entry is one
    Fraction of the two component products.
    """
    n = p.n
    d, window, over, _, entries = _arithmetic(p)
    one = window(0, -1) + 1
    u = [window(2 * k - 2 * j + 1, 2 * j) for j in range(n)]
    v = [window(2 * k - 2 * j, 2 * j + 1) for j in range(n)]
    s0, r0 = window(2 * k + 3, 2 * n), window(2 * k + 2, 2 * n + 1)
    head_num, head_den = [one] * n, [1] * n
    tail_num, tail_den = one, 1
    vecs = []
    for i in range(depth + 1):
        prev_num, prev_den = head_num[:], head_den[:]
        for j in range(n):
            den = v[j] + d * i
            _require_nonzero(den, "head window rising factorial")
            head_num[j], carried = over(head_num[j] * (u[j] + d * i), den)
            head_den[j] *= carried
        if i:
            tail_num, carried = over(tail_num * (s0 + d * (i - 1)), r0 + d * (i - 1))
            tail_den *= carried
        vecs.append(entries(_closed_form_components(head_num, tail_num, prev_num, one),
                            lambda: _closed_form_components(head_den, tail_den, prev_den, 1)))
    return vecs


@dataclass(frozen=True)
class SeriesSolution:
    """Branch-k series solution at t = 0.

    ``coeffs[i]`` is the i-th gauge-frame coefficient vector; component c
    of the gauge frame is the series of the branch function of level n-c.
    In the original frame the solution is t^exponent times an analytic
    vector whose components m <= k are gauge components m+n-k and whose
    components m > k are t times gauge components m-k-1: the gauge frame
    split after its first n-k components, with the two parts swapped.
    """

    k: int
    exponent: complex
    coeffs: np.ndarray

    @property
    def n(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def depth(self) -> int:
        return self.coeffs.shape[0] - 1

    def original_coeffs(self) -> np.ndarray:
        """Coefficient vectors u_i of the analytic factor in the original frame.

        The components m > k lose the top gauge row c_depth, whose term has
        degree depth + 1; :meth:`value` keeps it.
        """
        split = self.n - self.k
        u = np.zeros_like(self.coeffs)
        u[:, :self.k + 1] = self.coeffs[:, split:]
        u[1:, self.k + 1:] = self.coeffs[:-1, :split]
        return u

    def value(self, t: complex) -> np.ndarray:
        """The solution at t; raises ``SeriesError`` where it is not finite
        (for example once the powers of t overflow) and at t = 0 for a
        nonzero exponent, where t = 0 is a singular point of the branch."""
        t = complex(t)
        if t == 0 and self.exponent != 0:
            raise SeriesError(f"t = 0 is a singular point of branch {self.k} "
                              f"(exponent {self.exponent})")
        g = _powers(t, self.depth + 1) @ self.coeffs
        split = self.n - self.k
        out = t ** self.exponent * np.concatenate((g[split:], t * g[:split]))
        if not np.isfinite(out).all():
            raise SeriesError(f"branch-{self.k} series value is not finite at t = {t}")
        return out


def solve_recurrence(sys_k: LinearSystem, depth: int) -> SeriesSolution:
    """Analytic-branch series of a gauged system via the matrix recurrence.

    The leading vector spans the kernel of A0, normalised so its last
    entry is 1 (the closed form's value); each following vector solves an
    upper-triangular system exactly by back substitution.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if sys_k.kind != "fuchsian" or sys_k.dual:
        raise ValueError("recurrence defined for position-side Fuchsian systems")
    k = sys_k.gauge
    vecs = recurrence_vectors(sys_k.params, k, depth)
    return SeriesSolution(
        k=k,
        exponent=complex(branch_exponent(sys_k.params, k)),
        coeffs=_as_array(vecs),
    )


def closed_form_coeffs(p: ParameterSet, k: int, depth: int) -> SeriesSolution:
    """Branch-k series with coefficients from the explicit product formula."""
    vecs = closed_form_vectors(p, k, depth)
    return SeriesSolution(
        k=k,
        exponent=complex(branch_exponent(p, k)),
        coeffs=_as_array(vecs),
    )


# ----------------------------------------------------------------------
# hypergeometric assembly


def _branch_windows(p: ParameterSet, k: int):
    """Unshifted windows a_0..a_n (None where absorbed) and b_1..b_n of
    branch k at the set's level, as described in :func:`branch_spec`."""
    n, m = p.n, 2 * p.n + 2
    upper = [None if (k - i + 1) % (n + 1) < p.degeneracy
             else complex(p.partial_sum(2 * k - 2 * i + 3, (2 * i - 2) % m))
             for i in range(n + 1)]
    lower = [complex(p.partial_sum(2 * k - 2 * i + 2, 2 * i - 1)) for i in range(1, n + 1)]
    return upper, lower


def _shifted_spec(upper, lower, l: int) -> HGSpec:
    """HGSpec with windows 1..l shifted by one and absorbed windows dropped."""
    return HGSpec(
        tuple(w + (1.0 if 1 <= i <= l else 0.0) for i, w in enumerate(upper) if w is not None),
        tuple(w + (1.0 if i <= l else 0.0) for i, w in enumerate(lower, 1)),
    )


def _branch_levels(p: ParameterSet, k: int):
    """Base spec (level 0) of branch k and its level windows (a_l, b_l),
    l = 1..n: the arguments of the level rule :func:`hyperfn._level_weights`."""
    upper, lower = _branch_windows(p, k)
    return _shifted_spec(upper, lower, 0), tuple(zip(upper[1:], lower))


def branch_spec(p: ParameterSet, k: int, l: int):
    """(prefactor, HGSpec) of the level-l branch function of branch k, at
    every confluence level r = p.degeneracy.

    Every window ends at slot 2k+1.  Upper window a_i starts at the odd
    slot 2(k-i+1)+1 and holds 2i-1 terms (a_0: 2n+1); lower window b_i
    starts at 2k-2i+2 and holds 2i terms.  a_i and b_i are shifted by one
    for 1 <= i <= l.  The prefactor is the level weight W_l(0) =
    prod_{i<=l} a_i / b_i of the unshifted windows, from the level rule of
    :func:`hyperfn._level_weights`; a vanishing b_i raises ``SeriesError``.

    At level r the upper window starting at the odd slot 2s+1 is dropped
    for every s < r, from the parameters and from the prefactor numerator.
    In the source limit (``degenerate_replace`` at level s) that window
    holds alpha_{2s+1} + 1/eps but not the -1/eps of slot 2s, so it grows
    like 1/eps and is absorbed by the time rescaling, the confluence
    lim_{a -> oo} F(..., a; ...; t/a) of DLMF 16.8(ii).  Every other window
    holds both slots or neither.  Generic sets (r = 0) drop nothing.
    """
    if not (0 <= k <= p.n and 0 <= l <= p.n):
        raise ValueError(f"branch {k} or level {l} out of range 0..{p.n}")
    upper, lower = _branch_windows(p, k)
    pref = _level_weights(1.0 + 0.0j, tuple(zip(upper[1:l + 1], lower)), 0)[-1]
    return pref, _shifted_spec(upper, lower, l)


def fundamental_solution(p: ParameterSet, k: int, depth: int = 49) -> SeriesSolution:
    """Branch-k solution of the system of the set's level (Fuchsian for
    generic sets, confluent otherwise) assembled from hypergeometric
    series; valid on |t| < 1 for generic sets, entire for confluent ones.

    Gauge component n-l holds the Taylor coefficients of the level-l
    branch function: row i is the base coefficient c_i carried through the
    level factors at i (:func:`hyperfn._level_weights`), the rule that
    :func:`fundamental_matrix` sums by.  A vanishing lower window raises
    ``SeriesError``."""
    if not 0 <= k <= p.n:
        raise ValueError(f"branch index {k} out of range 0..{p.n}")
    spec, windows = _branch_levels(p, k)
    base = series_coefficients(spec, depth).tolist()
    coeffs = np.array([_level_weights(c, windows, i)[::-1] for i, c in enumerate(base)],
                      dtype=complex)
    return SeriesSolution(k=k, exponent=complex(branch_exponent(p, k)), coeffs=coeffs)


def fundamental_matrix(p: ParameterSet, t: complex) -> np.ndarray:
    """Matrix whose columns are the n+1 branch solutions evaluated at t.

    The level-l branch function of branch k is the base series of the
    branch (level 0) with its first l window pairs raised by one, so its
    terms are the base terms times one rational weight per level (see
    :func:`branch_spec`).  One pass of the summation loop over the base
    series therefore gives all n+1 level sums of a branch, each stopped by
    the rule of :func:`eval_series` on its own terms; they form one row of
    gauge-frame coefficients, evaluated by :meth:`SeriesSolution.value`.
    A generic set raises ``SeriesError`` at |t| >= 1, where its series
    diverge; confluent sets are entire.
    """
    columns = []
    for k in range(p.n + 1):
        spec, windows = _branch_levels(p, k)
        levels, _ = _contiguous_sums(spec, t, windows=windows)
        sol = SeriesSolution(k=k, exponent=complex(branch_exponent(p, k)),
                             coeffs=np.array([levels[::-1]], dtype=complex))
        columns.append(sol.value(t))
    return np.stack(columns, axis=1)


def scaled_det(matrix: np.ndarray) -> float:
    """|det| after scaling each row to unit max-norm (0 rows left alone)."""
    M = np.array(matrix, dtype=complex)
    for i in range(M.shape[0]):
        s = np.max(np.abs(M[i]))
        if s > 0:
            M[i] /= s
    return abs(np.linalg.det(M))


# ----------------------------------------------------------------------
# residual checks


def system_residual(sys: LinearSystem, sol: SeriesSolution, t: complex) -> float:
    """Residual of a series solution in the system at t.

    The solution is t^rho u with u the truncated analytic series.  The
    defect u' + (rho / t) u - A(t) u takes u and u' exactly from the
    original-frame coefficients and one vector of powers of t, so it
    measures the series itself, with no finite-difference error.
    Normalised by the solution magnitude.
    """
    t = complex(t)
    c = sol.original_coeffs()
    tpow = _powers(t, c.shape[0])
    u = tpow @ c
    du = (np.arange(1, c.shape[0]) * tpow[:-1]) @ c[1:]
    defect = du + (sol.exponent / t) * u - sys.coefficient(t) @ u
    scale = np.linalg.norm(u)
    if scale == 0.0:
        return float(np.linalg.norm(defect))
    return float(np.linalg.norm(defect) / scale)


def recurrence_residual(sys: LinearSystem, sol: SeriesSolution) -> float:
    """Exact-coefficient residual of a series solution in the system.

    Substitutes the original-frame coefficients into the shifted series
    recurrence of the system (Fuchsian or confluent) and returns the
    largest row defect relative to the largest coefficient.  Free of
    finite-difference noise; rounding-level for true solutions.
    """
    u = sol.original_coeffs()
    rho = complex(sol.exponent)
    A0, A1 = sys.A0, sys.A1
    shifts = (rho + np.arange(u.shape[0]))[:, None]
    defect = u @ A0.T - shifts * u
    if sys.kind == "fuchsian":
        defect[1:] -= u[:-1] @ (A0 - A1).T - shifts[:-1] * u[:-1]
    else:
        defect[1:] += u[:-1] @ A1.T
    worst = np.max(np.abs(defect))
    scale = np.max(np.abs(u)) * max(1.0, u.shape[0] + abs(rho))
    return float(worst / scale) if scale > 0 else float(worst)


def component_ode_params(p: ParameterSet, i: int) -> HGSpec:
    """Scalar operator satisfied by component i of any system solution:
    the spec of the level n-i branch function of branch n (see
    :func:`branch_spec`), at every confluence level."""
    n = p.n
    if not 0 <= i <= n:
        raise ValueError(f"component index {i} out of range 0..{n}")
    return _shifted_spec(*_branch_windows(p, n), n - i)


def component_operator_residual(p: ParameterSet, sol: SeriesSolution, t: complex) -> float:
    """Worst per-component residual of a branch solution in its scalar
    operator (:func:`component_ode_params`), each read at the coefficient
    level and at t by :func:`hyperfn.operator_residual`, all n+1 columns
    in one pass.  A component beyond the branch index carries an extra
    factor of t; its leading original-frame coefficient is 0, so its column
    read at the branch exponent is the same series and the same
    coefficient-level reading as the column without that entry read one
    degree higher."""
    n = p.n
    upper, lower = _branch_windows(p, n)
    specs = [_shifted_spec(upper, lower, n - i) for i in range(n + 1)]
    return _operator_residual_columns(specs, sol.original_coeffs(), t, sol.exponent)


def system_to_json(sys: LinearSystem) -> dict:
    enc = lambda M: [[[z.real, z.imag] for z in row] for row in np.asarray(M)]
    return {
        "n": sys.n,
        "kind": sys.kind,
        "dual": sys.dual,
        "gauge": sys.gauge,
        "A0": enc(sys.A0),
        "A1": enc(sys.A1),
    }
