"""Linear systems attached to the hierarchy and their series solutions.

The generic specialisation (all momenta and eta zero) of the rank-n
symmetric Hamiltonian turns the position vector into a solution of a
Fuchsian system

    dx/dt = (A0 / t + A1 / (1 - t)) x

with A0 upper triangular and A1 of rank one; the confluent levels replace
A1 / (1 - t) by a constant 0/1 matrix.  This module builds those residue
matrices, the dual (momentum-side) system, the cyclic gauge transforms,
and the three independent routes to the series solutions at t = 0:

* the matrix two-term recurrence, solved exactly by back substitution on
  the triangular structure (works over Fractions as well);
* the closed-form coefficient vectors, products of rising factorials of
  cyclic window sums;
* assembly from hypergeometric series with the branch-dependent
  parameter bookkeeping, including the confluent case split.

Exponent conventions: branch k of the system carries t^(-w_k) with
w_k = alpha_{2k+2} + ... + alpha_{2n} + alpha_{2n+1} (window sum), the
k-th diagonal entry of -A0 and zero for k = n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hyperfn import HGSpec, series_coefficients, operator_residual
from .params import ParameterSet


class ResonanceError(ArithmeticError):
    """A pivot or Pochhammer denominator vanished: parameters are resonant."""


_PIVOT_FLOOR = 1e-300


# ----------------------------------------------------------------------
# residue matrices


def _zeros(n, like):
    z = like * 0
    return [[z for _ in range(n + 1)] for _ in range(n + 1)]


def _fuchsian_matrices(p: ParameterSet, shift: int = 0):
    """Nested-list (type-preserving) residue matrices, optionally with all
    alpha indices advanced by ``shift`` (the cyclic gauge relabelling)."""
    n = p.n
    A0 = _zeros(n, p.alpha[0])
    A1 = _zeros(n, p.alpha[0])
    for i in range(n):
        A0[i][i] = -p.partial_sum(2 * i + 2 + shift, 2 * n - 2 * i - 1)
        for j in range(i + 1, n + 1):
            A0[i][j] = p.alpha_at(2 * j + 1 + shift)
    for i in range(n + 1):
        for j in range(n + 1):
            A1[i][j] = p.alpha_at(2 * j + 1 + shift)
    return A0, A1


def _dual_matrices(p: ParameterSet):
    n = p.n
    A0 = _zeros(n, p.alpha[0])
    A1 = _zeros(n, p.alpha[0])
    for i in range(n):
        A0[i][i] = p.partial_sum(2 * i + 2, 2 * n - 2 * i - 1)
        for j in range(i):
            A0[i][j] = -p.alpha_at(2 * i + 1)
    for j in range(n + 1):
        A0[n][j] = A0[n][j] + p.alpha_at(2 * n + 1)
    for i in range(n):
        for j in range(n + 1):
            A1[i][j] = -p.alpha_at(2 * i + 1)
    for j in range(n + 1):
        A1[n][j] = p.alpha_at(2 * n + 1)
    return A0, A1


def _confluent_matrices(p: ParameterSet):
    n, r = p.n, p.degeneracy
    A0 = _zeros(n, p.alpha[0])
    A1 = _zeros(n, p.alpha[0])
    for i in range(n):
        A0[i][i] = -p.partial_sum(2 * i + 2, 2 * n - 2 * i - 1)
    for i in range(r - 1):
        A0[i][i + 1] = A0[i][i + 1] + 1
    for i in range(r - 1, n):
        for j in range(i + 1, n + 1):
            A0[i][j] = A0[i][j] + p.alpha_at(2 * j + 1)
    for i in range(r - 1, n + 1):
        A1[i][0] = A1[i][0] + 1
    return A0, A1


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
    A0, A1 = _fuchsian_matrices(p)
    return LinearSystem(p.n, _as_array(A0), _as_array(A1), "fuchsian", p, gauge=p.n)


def build_dual(p: ParameterSet) -> LinearSystem:
    """Momentum-side system of the dual specialisation."""
    A0, A1 = _dual_matrices(p)
    return LinearSystem(p.n, _as_array(A0), _as_array(A1), "fuchsian", p, gauge=p.n, dual=True)


def build_confluent(p: ParameterSet) -> LinearSystem:
    """Confluent system at the parameter set's own level."""
    if not 1 <= p.degeneracy <= p.n + 1:
        raise ValueError("confluent system needs a parameter set of level 1..n+1")
    A0, A1 = _confluent_matrices(p)
    return LinearSystem(p.n, _as_array(A0), _as_array(A1), "confluent", p, gauge=p.n)


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
    A0, A1 = _fuchsian_matrices(sys.params, shift=2 * k + 2)
    return LinearSystem(sys.n, _as_array(A0), _as_array(A1), "fuchsian", sys.params, gauge=k)


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
    """Raise ResonanceError if v vanishes: exactly for a Fraction, below
    ``_PIVOT_FLOOR`` in modulus otherwise."""
    if (v == 0) if isinstance(v, Fraction) else (abs(complex(v)) < _PIVOT_FLOOR):
        where = "" if row is None else f" at row {row}"
        raise ResonanceError(f"vanishing {what}{where}")


def _upper_solve(rows, rhs, pivot_shift):
    """Solve (A + pivot_shift I) v = rhs for upper-triangular nested-list A."""
    m = len(rows)
    v = [rhs[0] * 0 for _ in range(m)]
    for i in range(m - 1, -1, -1):
        acc = rhs[i]
        for j in range(i + 1, m):
            acc = acc - rows[i][j] * v[j]
        pivot = rows[i][i] + pivot_shift
        _require_nonzero(pivot, "recurrence pivot", i)
        v[i] = acc / pivot
    return v


def _kernel_last_one(rows):
    """Kernel vector of upper-triangular A with A[m-1][m-1] = 0, last entry 1."""
    m = len(rows)
    one = rows[0][0] * 0 + 1
    v = [rows[0][0] * 0 for _ in range(m)]
    v[m - 1] = one
    for i in range(m - 2, -1, -1):
        acc = rows[0][0] * 0
        for j in range(i + 1, m):
            acc = acc + rows[i][j] * v[j]
        _require_nonzero(rows[i][i], "diagonal entry (kernel not one-dimensional)", i)
        v[i] = -acc / rows[i][i]
    return v


def recurrence_vectors(p: ParameterSet, k: int, depth: int):
    """Gauge-frame coefficient vectors from the matrix recurrence.

    Solves A0 x_0 = 0 and (A0 - (i+1) I) x_{i+1} = (A0 - A1 - i I) x_i by
    exact back substitution; type-preserving, so Fraction parameter sets
    yield exact rational vectors.
    """
    n = p.n
    A0, A1 = _fuchsian_matrices(p, shift=2 * k + 2)
    # A0 is upper triangular: below its diagonal A0 - A1 is just -A1
    step = [[A0[row][col] - A1[row][col] if col >= row else -A1[row][col]
             for col in range(n + 1)] for row in range(n + 1)]
    vecs = [_kernel_last_one(A0)]
    for i in range(depth):
        prev = vecs[i]
        rhs = []
        for row, coeffs in enumerate(step):
            acc = (-i) * prev[row]
            for a, x in zip(coeffs, prev):
                acc = acc + a * x
            rhs.append(acc)
        vecs.append(_upper_solve(A0, rhs, -(i + 1)))
    return vecs


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
    ratio): one per head window, (u_j)_{i+1} / (v_j)_{i+1}, and one per
    tail window, (s_j)_i / (r_j)_i, each advanced by a single factor per
    depth step.  Component m is then the prefix product of the first n-m
    head ratios times that of the first m+1 tail ratios, so the cost is
    O(depth * n) products instead of rebuilding every rising factorial.
    Each head denominator factor is checked for resonance, which covers
    the tail factors too; over Fractions the vectors are exact.
    """
    n = p.n
    one = p.alpha[0] * 0 + 1
    heads_num = [p.partial_sum(2 * k - 2 * j + 1, 2 * j) for j in range(n)]
    heads_den = [p.partial_sum(2 * k - 2 * j, 2 * j + 1) for j in range(n)]
    tails_num = [p.partial_sum(2 * k + 2 * j + 3, 2 * n - 2 * j) for j in range(n + 1)]
    tails_den = [p.partial_sum(2 * k + 2 * j + 2, 2 * n - 2 * j + 1) for j in range(n + 1)]
    heads = [one] * n
    tails = [one] * (n + 1)
    vecs = []
    for i in range(depth + 1):
        for j in range(n):
            den = heads_den[j] + i
            _require_nonzero(den, "head window rising factorial")
            heads[j] = heads[j] * (heads_num[j] + i) / den
        if i:
            # tail window j is head window n-j, whose factor was checked one
            # step earlier; r_0 is the full-period sum 1
            for j in range(n + 1):
                tails[j] = tails[j] * (tails_num[j] + (i - 1)) / (tails_den[j] + (i - 1))
        head_prefix = [one]
        for h in heads:
            head_prefix.append(head_prefix[-1] * h)
        vec = []
        tail_prefix = one
        for m in range(n + 1):
            tail_prefix = tail_prefix * tails[m]
            vec.append(head_prefix[n - m] * tail_prefix)
        vecs.append(vec)
    return vecs


@dataclass(frozen=True)
class SeriesSolution:
    """Branch-k series solution at t = 0.

    ``coeffs[i]`` is the i-th gauge-frame coefficient vector; component c
    of the gauge frame is the series of the branch function of level n-c.
    In the original frame the solution is t^exponent times an analytic
    vector whose components m <= k are gauge components m+n-k and whose
    components m > k are t times gauge components m-k-1.
    """

    k: int
    exponent: complex
    coeffs: np.ndarray
    source: str

    @property
    def n(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def depth(self) -> int:
        return self.coeffs.shape[0] - 1

    def gauged_value(self, t: complex) -> np.ndarray:
        t = complex(t)
        val = np.zeros(self.n + 1, dtype=complex)
        for vec in self.coeffs[::-1]:
            val = val * t + vec
        return val

    def original_coeffs(self) -> np.ndarray:
        """Coefficient vectors u_i of the analytic factor in the original frame."""
        n, k = self.n, self.k
        depth = self.depth
        u = np.zeros((depth + 1, n + 1), dtype=complex)
        for m in range(n + 1):
            if m <= k:
                u[:, m] = self.coeffs[:, m + n - k]
            else:
                u[1:, m] = self.coeffs[:-1, m - k - 1]
        return u

    def analytic_value(self, t: complex) -> np.ndarray:
        """The original-frame solution with the power prefactor stripped."""
        t = complex(t)
        g = self.gauged_value(t)
        out = np.empty(self.n + 1, dtype=complex)
        for m in range(self.n + 1):
            out[m] = g[m + self.n - self.k] if m <= self.k else t * g[m - self.k - 1]
        return out

    def value(self, t: complex) -> np.ndarray:
        t = complex(t)
        return t ** self.exponent * self.analytic_value(t)


def _to_coeff_array(vecs) -> np.ndarray:
    return np.array([[complex(v) for v in vec] for vec in vecs], dtype=complex)


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
        coeffs=_to_coeff_array(vecs),
        source="recurrence",
    )


def closed_form_coeffs(p: ParameterSet, k: int, depth: int) -> SeriesSolution:
    """Branch-k series with coefficients from the explicit product formula."""
    vecs = closed_form_vectors(p, k, depth)
    return SeriesSolution(
        k=k,
        exponent=complex(branch_exponent(p, k)),
        coeffs=_to_coeff_array(vecs),
        source="closed_form",
    )


# ----------------------------------------------------------------------
# hypergeometric assembly


def branch_spec(p: ParameterSet, k: int, l: int):
    """(prefactor, HGSpec) of the level-l branch function, generic case.

    a_0 spans the 2n+1 entries ending at 2k+1; the paired windows
    a_i / b_i of lengths 2i-1 / 2i ending at 2k+1 / 2k+1 are shifted by one
    for i <= l.  The prefactor is the product of the first l unshifted
    window ratios.
    """
    n = p.n
    pref = 1.0 + 0.0j
    for i in range(1, l + 1):
        den = complex(p.partial_sum(2 * k - 2 * i + 2, 2 * i - 1))
        _require_nonzero(den, "prefactor window sum")
        pref *= complex(p.partial_sum(2 * k - 2 * i + 3, 2 * i - 2)) / den
    upper = [complex(p.partial_sum(2 * k - 2 * n + 1, 2 * n))]
    lower = []
    for i in range(1, n + 1):
        shift = 1.0 if i <= l else 0.0
        upper.append(complex(p.partial_sum(2 * k - 2 * i + 3, 2 * i - 2)) + shift)
        lower.append(complex(p.partial_sum(2 * k - 2 * i + 2, 2 * i - 1)) + shift)
    return pref, HGSpec(tuple(upper), tuple(lower))


def confluent_branch_spec(p: ParameterSet, k: int, l: int):
    """(prefactor, HGSpec) of the level-l branch function at confluence
    level r = p.degeneracy.

    The surviving upper parameters are indexed i = r..n with base window
    starting at 2r-2i-1; window lengths are reduced modulo the period, so
    whole-period copies of sum(alpha) = 1 are not absorbed into the
    parameter.  Which of them acquire the +1 shift depends on the
    position of the branch relative to the confluence level:

        k+1 <= r:  none for l < k+2, else i in [r, r-k+l-2];
        r < k+1:   i in [n+r-k, n+r-k+l-1] for l < k-r+1,
                   i in [n+r-k, n]          for k-r+1 <= l < k+2,
                   both [r, r-k+l-2] and [n+r-k, n] for k+2 <= l.

    Prefactor numerators survive only when (k-i+1) mod (n+1) >= r.
    """
    n, r = p.n, p.degeneracy
    m = 2 * n + 2
    pref = 1.0 + 0.0j
    for i in range(1, l + 1):
        den = complex(p.partial_sum(2 * k - 2 * i + 2, 2 * i - 1))
        _require_nonzero(den, "prefactor window sum")
        pref /= den
        if (k - i + 1) % (n + 1) >= r:
            pref *= complex(p.partial_sum(2 * k - 2 * i + 3, 2 * i - 2))
    shifted = set()

    def mark(lo, hi):
        for i in range(max(lo, r), min(hi, n) + 1):
            shifted.add(i)

    if k + 1 <= r:
        if l >= k + 2:
            mark(r, r - k + l - 2)
    else:
        if l < k - r + 1:
            mark(n + r - k, n + r - k + l - 1)
        elif l < k + 2:
            mark(n + r - k, n)
        else:
            mark(r, r - k + l - 2)
            mark(n + r - k, n)
    upper = []
    for i in range(r, n + 1):
        length = (2 * k - 2 * r + 2 * i + 2) % m
        base = complex(p.partial_sum(2 * r - 2 * i - 1, length))
        upper.append(base + (1.0 if i in shifted else 0.0))
    lower = []
    for i in range(1, n + 1):
        shift = 1.0 if i <= l else 0.0
        lower.append(complex(p.partial_sum(2 * k - 2 * i + 2, 2 * i - 1)) + shift)
    return pref, HGSpec(tuple(upper), tuple(lower))


def _assemble(p, k, depth, spec_of_l, source):
    n = p.n
    coeffs = np.zeros((depth + 1, n + 1), dtype=complex)
    for l in range(n + 1):
        pref, spec = spec_of_l(p, k, l)
        # gauge component c carries the level n-c branch function
        coeffs[:, n - l] = pref * series_coefficients(spec, depth)
    return SeriesSolution(
        k=k,
        exponent=complex(branch_exponent(p, k)),
        coeffs=coeffs,
        source=source,
    )


def fundamental_solution(p: ParameterSet, k: int, depth: int = 49) -> SeriesSolution:
    """Branch-k solution of the Fuchsian system assembled from
    hypergeometric series (valid on |t| < 1)."""
    if p.degeneracy != 0:
        raise ValueError("generic parameter set required")
    if not 0 <= k <= p.n:
        raise ValueError(f"branch index {k} out of range 0..{p.n}")
    return _assemble(p, k, depth, branch_spec, "hypergeometric")


def confluent_fundamental_solution(p: ParameterSet, k: int, depth: int = 49) -> SeriesSolution:
    """Branch-k solution of the level-r confluent system from confluent
    hypergeometric series."""
    if not 1 <= p.degeneracy <= p.n + 1:
        raise ValueError("confluent parameter set required")
    if not 0 <= k <= p.n:
        raise ValueError(f"branch index {k} out of range 0..{p.n}")
    return _assemble(p, k, depth, confluent_branch_spec, "hypergeometric")


def fundamental_matrix(p: ParameterSet, t: complex, depth: int = 49) -> np.ndarray:
    """Matrix whose columns are the n+1 branch solutions evaluated at t."""
    build = confluent_fundamental_solution if p.degeneracy else fundamental_solution
    cols = [build(p, k, depth).value(t) for k in range(p.n + 1)]
    return np.stack(cols, axis=1)


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
    tpow = np.full(c.shape[0], t)
    tpow[0] = 1.0
    tpow = tpow.cumprod()
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
    """Scalar operator satisfied by component i of any system solution.

    Generic sets: a_0 is the full window starting at index 1; the paired
    windows a_j / b_j of 2j-1 / 2j terms starting at 2n-2j+3 / 2n-2j+2 are
    both shifted by one for j <= n-i.  Confluent sets of level r: the
    upper windows start at 2r-2j-1 with period-reduced lengths; all are
    shifted for components i <= r-1, otherwise those with j < n+r-i.
    """
    n = p.n
    if not 0 <= i <= n:
        raise ValueError(f"component index {i} out of range 0..{n}")
    lower = []
    for j in range(1, n + 1):
        shift = 1.0 if j <= n - i else 0.0
        lower.append(complex(p.partial_sum(2 * n - 2 * j + 2, 2 * j - 1)) + shift)
    if p.degeneracy == 0:
        upper = [complex(p.partial_sum(1, 2 * n))]
        for j in range(1, n + 1):
            shift = 1.0 if j <= n - i else 0.0
            upper.append(complex(p.partial_sum(2 * n - 2 * j + 3, 2 * j - 2)) + shift)
    else:
        r = p.degeneracy
        m = 2 * n + 2
        upper = []
        for j in range(r, n + 1):
            length = (2 * n - 2 * r + 2 * j + 2) % m
            base = complex(p.partial_sum(2 * r - 2 * j - 1, length))
            shift = 1.0 if (i <= r - 1 or j <= n + r - i - 1) else 0.0
            upper.append(base + shift)
    return HGSpec(tuple(upper), tuple(lower))


def component_operator_residual(p: ParameterSet, sol: SeriesSolution, t: complex) -> float:
    """Worst per-component residual of a branch solution in its scalar operator."""
    u = sol.original_coeffs()
    worst = 0.0
    for i in range(p.n + 1):
        spec = component_ode_params(p, i)
        # components beyond the branch index carry an extra factor of t
        rho = sol.exponent + (1.0 if i > sol.k else 0.0)
        coeffs = u[1:, i] if i > sol.k else u[:, i]
        worst = max(worst, operator_residual(spec, coeffs, t, exponent=rho))
    return worst


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
