import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cpvi.dynamics import integrate, linear_rhs
from cpvi.hyperfn import (HGSpec, SeriesError, _level_weights, eval_series, operator_residual,
                          pochhammer, series_coefficients)
from cpvi.linear import (
    LinearSystem,
    ResonanceError,
    SeriesSolution,
    _as_array,
    _branch_levels,
    _branch_windows,
    _residue_matrices,
    branch_exponent,
    branch_spec,
    build_confluent,
    build_dual,
    build_fuchsian,
    closed_form_coeffs,
    closed_form_vectors,
    component_ode_params,
    component_operator_residual,
    fundamental_matrix,
    fundamental_solution,
    gauge_matrix,
    gauge_transform,
    recurrence_residual,
    recurrence_vectors,
    scaled_det,
    solve_recurrence,
    system_residual,
    system_to_json,
)
from cpvi.params import (ParameterSet, degenerate_replace, sample_degenerate, sample_generic,
                         sample_rational_generic)


def pset(alpha, degeneracy=0):
    n = len(alpha) // 2 - 1
    return ParameterSet(n, tuple(complex(a) for a in alpha), 0.0, degeneracy)


P_N1 = pset([0.1, 0.2, 0.3, 0.4])
A0_N1, A1_N1, A2_N1, A3_N1 = 0.1, 0.2, 0.3, 0.4


class TestBuilders:
    def test_fuchsian_n1_matrices(self):
        sys = build_fuchsian(P_N1)
        assert np.allclose(sys.A0, [[-(A2_N1 + A3_N1), A3_N1], [0, 0]])
        assert np.allclose(sys.A1, [[A1_N1, A3_N1], [A1_N1, A3_N1]])

    def test_fuchsian_n2_diagonal(self):
        p = sample_generic(2, seed=3)
        sys = build_fuchsian(p)
        expect = [-p.partial_sum(2, 3), -p.partial_sum(4, 1), 0.0]
        assert np.allclose(np.diag(sys.A0), expect)

    def test_residue_spectra_match_structure(self):
        p = sample_generic(3, seed=5)
        sys = build_fuchsian(p)
        spectra = sys.residue_spectra()
        n = p.n
        for i in range(n):
            assert spectra["zero"][i] == pytest.approx(
                complex(-p.partial_sum(2 * i + 2, 2 * n - 2 * i - 1)))
        assert spectra["zero"][n] == 0
        odd_total = sum(p.alpha[1::2])
        assert spectra["one"][-1] == pytest.approx(complex(-odd_total))
        for i in range(n + 1):
            assert spectra["infinity"][i] == pytest.approx(
                complex(p.partial_sum(2 * i + 1, 2 * n - 2 * i)))
        # structural reads agree with a general eigensolver
        assert np.allclose(sorted(np.linalg.eigvals(sys.A0).real),
                           sorted(spectra["zero"].real), atol=1e-10)
        assert np.allclose(sorted(np.linalg.eigvals(-sys.A1).real),
                           sorted(spectra["one"].real), atol=1e-10)

    def test_fuchs_exponent_sum_vanishes(self):
        for seed in range(8):
            p = sample_generic(2 + seed % 3, seed=100 + seed)
            spectra = build_fuchsian(p).residue_spectra()
            total = sum(v.sum() for v in spectra.values())
            assert abs(total) < 1e-13

    def test_dual_n1_matrices(self):
        sys = build_dual(P_N1)
        assert np.allclose(sys.A0, [[A2_N1 + A3_N1, 0], [A3_N1, A3_N1]])
        assert np.allclose(sys.A1, [[-A1_N1, -A1_N1], [A3_N1, A3_N1]])

    def test_dual_row_structure(self):
        p = sample_generic(3, seed=8)
        sys = build_dual(p)
        for i in range(p.n):
            assert np.allclose(sys.A1[i], complex(-p.alpha[2 * i + 1]))
        assert np.allclose(sys.A1[p.n], complex(p.alpha[2 * p.n + 1]))

    def test_dual_residue_trace_identity(self):
        p = sample_generic(2, seed=9)
        sys = build_dual(p)
        at_infinity = sys.A1 - sys.A0
        assert abs(sys.A0.trace() - sys.A1.trace() + at_infinity.trace()) < 1e-14

    def test_confluent_n1_r2(self):
        p = sample_degenerate(1, 2, seed=4)
        sys = build_confluent(p)
        assert np.allclose(sys.A1, [[0, 0], [1, 0]])
        assert sys.A0[0, 1] == 1.0  # chain entry above the diagonal
        assert np.allclose(np.diag(sys.A0), [complex(-p.partial_sum(2, 1)), 0])

    def test_confluent_n2_r1_column(self):
        p = sample_degenerate(2, 1, seed=6)
        sys = build_confluent(p)
        assert np.allclose(sys.A1[:, 0], 1.0)
        assert np.allclose(sys.A1[:, 1:], 0.0)

    def test_confluent_at_level_zero_is_fuchsian(self):
        sys, want = build_confluent(P_N1), build_fuchsian(P_N1)
        assert sys.kind == want.kind == "fuchsian"
        assert sys.A0.tobytes() == want.A0.tobytes() and sys.A1.tobytes() == want.A1.tobytes()

    def test_json_shape(self):
        data = system_to_json(build_fuchsian(P_N1))
        assert data["kind"] == "fuchsian" and len(data["A0"]) == 2


def _scaling(n, r, eps):
    s = np.ones(n + 1, dtype=complex)
    s[: max(r - 1, 0)] = 1.0 / eps
    return np.diag(s)


def _confluence_matrix_error(p, r, eps, t):
    """Distance between the level-r coefficient matrix and the rescaled
    level-(r-1) one at finite eps."""
    target = build_confluent(p)
    src = build_confluent(degenerate_replace(p.with_degeneracy(r - 1), eps))
    S = _scaling(p.n, r, eps)
    M_eps = eps * np.linalg.inv(S) @ src.coefficient(eps * t) @ S
    return np.linalg.norm(M_eps - target.coefficient(t))


class TestAsArray:
    def test_entries_convert_as_complex_converts_them(self):
        rows = [[Fraction(1, 3), -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), -0.0j],
                [0, Fraction(-7, 2), 2 ** 70, complex(1.5, -2.5), Fraction(10 ** 400, 3 * 10 ** 399)]]
        got = _as_array(rows)
        want = np.array([[complex(v) for v in row] for row in rows])
        assert got.dtype == complex and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


class TestConfluenceLimit:
    @pytest.mark.parametrize("n,r", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)])
    def test_matrix_limit_is_first_order(self, n, r):
        p = sample_degenerate(n, r, seed=40 + n + r)
        e1 = _confluence_matrix_error(p, r, 1e-3, 0.7)
        e2 = _confluence_matrix_error(p, r, 1e-4, 0.7)
        order = np.log10(e1 / e2)
        assert 0.8 <= order <= 1.2

    # The level-(r-1) source set carries a 1/eps entry; the series of its
    # branch spec, with t rescaled by eps, tends to the level-r series: the
    # window that branch_spec absorbs at level r is the one that blows up.
    @pytest.mark.parametrize("n,r", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3),
                                     (3, 1), (3, 2), (3, 3), (3, 4)])
    def test_branch_spec_limit_is_first_order(self, n, r):
        p = sample_degenerate(n, r, seed=200 + 10 * n + r)
        depth = 12
        for k in range(n + 1):
            for l in range(n + 1):
                target = series_coefficients(branch_spec(p, k, l)[1], depth)
                target = target / target[0]
                errs = []
                for eps in (1e-3, 1e-4):
                    _, spec = branch_spec(degenerate_replace(p.with_degeneracy(r - 1), eps), k, l)
                    c = series_coefficients(spec, depth)
                    scaled = c / c[0] * eps ** np.arange(depth + 1)
                    errs.append(np.max(np.abs(scaled - target)) / np.max(np.abs(target)))
                assert 0.8 <= np.log10(errs[0] / errs[1]) <= 1.2


class TestGauge:
    def test_n1_k0_diagonal(self):
        p = P_N1
        sysk = gauge_transform(build_fuchsian(p), 0)
        # shifted window: minus (alpha_0 + alpha_1) via the cyclic relabelling
        assert sysk.A0[0, 0] == pytest.approx(-(A0_N1 + A1_N1))
        assert sysk.A0[1, 1] == 0

    @pytest.mark.parametrize("n,k", [(1, 0), (2, 1), (3, 2), (3, 0)])
    def test_diagonal_is_shifted_window(self, n, k):
        p = sample_generic(n, seed=n * 7 + k)
        sysk = gauge_transform(build_fuchsian(p), k)
        for i in range(n):
            expect = -p.partial_sum(2 * k + 2 * i + 4, 2 * n - 2 * i - 1)
            assert sysk.A0[i, i] == pytest.approx(complex(expect))

    @pytest.mark.parametrize("n,k", [(2, 0), (2, 2), (3, 1)])
    def test_matches_cyclically_relabelled_build(self, n, k):
        p = sample_generic(n, seed=n + 17 * k)
        sysk = gauge_transform(build_fuchsian(p), k)
        ref = build_fuchsian(p.shifted(2 * k + 2))
        assert np.array_equal(sysk.A0, ref.A0) and np.array_equal(sysk.A1, ref.A1)

    def test_k_n_reproduces_original(self):
        p = sample_generic(2, seed=12)
        sys = build_fuchsian(p)
        sysk = gauge_transform(sys, 2)
        assert np.array_equal(sys.A0, sysk.A0) and np.array_equal(sys.A1, sysk.A1)

    @pytest.mark.parametrize("n,k", [(1, 0), (2, 1), (3, 0)])
    def test_gauge_matrix_maps_solutions(self, n, k):
        # G_k(t) x(t) must solve the gauged system; it also equals the
        # gauge-frame series of the same branch.
        p = sample_generic(n, seed=23 + 5 * n + k)
        sol = fundamental_solution(p, k, depth=60)
        sysk = gauge_transform(build_fuchsian(p), k)
        for t in (0.15, 0.35):
            g = gauge_matrix(p, k, t) @ sol.value(t)
            assert np.allclose(g, sum(c * t ** i for i, c in enumerate(sol.coeffs)),
                               rtol=1e-9, atol=1e-12)
            h = 1e-6
            g_plus = gauge_matrix(p, k, t + h) @ sol.value(t + h)
            g_minus = gauge_matrix(p, k, t - h) @ sol.value(t - h)
            deriv = (g_plus - g_minus) / (2 * h)
            defect = deriv - sysk.coefficient(t) @ g
            assert np.linalg.norm(defect) / np.linalg.norm(g) < 1e-9


class TestRecurrence:
    def test_kernel_vector(self):
        p = sample_generic(2, seed=31)
        sysk = gauge_transform(build_fuchsian(p), 1)
        sol = solve_recurrence(sysk, depth=5)
        assert np.linalg.norm(sysk.A0 @ sol.coeffs[0]) < 1e-13
        assert sol.coeffs[0][-1] == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_closed_form(self, n):
        p = sample_generic(n, seed=50 + n)
        sys = build_fuchsian(p)
        for k in range(n + 1):
            rec = solve_recurrence(gauge_transform(sys, k), depth=12)
            cf = closed_form_coeffs(p, k, depth=12)
            scale = np.maximum(np.abs(cf.coeffs), 1.0)
            assert np.max(np.abs(rec.coeffs - cf.coeffs) / scale) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_solves_the_level_zero_system_of_a_confluent_set(self, n):
        """build_fuchsian reads level 0 whatever the set's level, and the
        recurrence solves the system it is given."""
        for r in range(1, n + 2):
            p = sample_degenerate(n, r, seed=60 + 10 * n + r)
            sys = build_fuchsian(p)
            for k in range(n + 1):
                sol = solve_recurrence(gauge_transform(sys, k), depth=12)
                assert recurrence_residual(sys, sol) < 1e-13

    def test_step_matrix_ranks(self):
        p = sample_generic(3, seed=77)
        sysk = gauge_transform(build_fuchsian(p), 1)
        n = p.n
        assert np.linalg.matrix_rank(sysk.A0) == n
        for i in range(5):
            step = sysk.A0 - (i + 1) * np.eye(n + 1)
            assert np.linalg.matrix_rank(step) == n + 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_rational_equality(self, n):
        p = sample_rational_generic(n, seed=60 + n)
        for k in range(n + 1):
            rec = recurrence_vectors(p, k, 12)
            cf = closed_form_vectors(p, k, 12)
            assert rec == cf  # exact Fraction equality

    def test_closed_form_leading_last_entry(self):
        p = sample_generic(3, seed=71)
        for k in range(4):
            vecs = closed_form_vectors(p, k, 0)
            assert vecs[0][-1] == 1


def _set_with_window(n, start, length, value, inside, outside, seed=5):
    """Rational set whose window sum alpha_start..alpha_{start+length} is
    ``value``: entry ``inside`` of the window takes up the difference and
    entry ``outside`` restores sum(alpha) = 1."""
    alpha = list(sample_rational_generic(n, seed).alpha)
    m = 2 * n + 2
    window = [(start + i) % m for i in range(length + 1)]
    assert inside in window and outside not in window
    alpha[inside] += value - sum(alpha[i] for i in window)
    alpha[outside] += 1 - sum(alpha)
    return ParameterSet(n, tuple(alpha), Fraction(0), 0)


class TestResonance:
    # For n = 2, k = 0 the window alpha_0 + alpha_1 is the head denominator
    # v_0, the tail denominator r_2 and minus the gauge diagonal entry of
    # row 1; alpha_4 + ... + alpha_1 is v_1, r_1 and minus that of row 0.
    # A window sum -d makes a rising factorial vanish from order d + 1 and
    # a recurrence pivot (the kernel's diagonal for d = 0) vanish at step d.
    @pytest.mark.parametrize("start,length,row", [(0, 1, 1), (4, 3, 0)])
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_nonpositive_integer_window_raises(self, start, length, row, d):
        p = _set_with_window(2, start, length, Fraction(-d), inside=1, outside=3)
        assert p.partial_sum(start, length) == -d
        with pytest.raises(ResonanceError, match="head window"):
            closed_form_vectors(p, 0, d)
        with pytest.raises(ResonanceError, match=f"row {row}"):
            recurrence_vectors(p, 0, d)
        if d:
            assert closed_form_vectors(p, 0, d - 1) == recurrence_vectors(p, 0, d - 1)

    # The same for the other branches: at branch k the head denominators are
    # v_0 = alpha_{2k} + alpha_{2k+1} (row 1) and v_1 = alpha_{2k-2} + ...
    # + alpha_{2k+1} (row 0), again the tail denominators r_2 and r_1.
    @pytest.mark.parametrize("k,start,length,row", [(1, 2, 1, 1), (1, 0, 3, 0),
                                                    (2, 4, 1, 1), (2, 2, 3, 0)])
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_every_branch_head_check_raises(self, k, start, length, row, d):
        p = _set_with_window(2, start, length, Fraction(-d), inside=start,
                             outside=(start + length + 1) % 6)
        assert p.partial_sum(start, length) == -d
        with pytest.raises(ResonanceError, match="head window"):
            closed_form_vectors(p, k, d)
        with pytest.raises(ResonanceError, match=f"row {row}"):
            recurrence_vectors(p, k, d)
        if d:
            assert closed_form_vectors(p, k, d - 1) == recurrence_vectors(p, k, d - 1)

    # Branch 0 of these n = 1 sets has the lower window b_1 = alpha_0 +
    # alpha_1 = 0 and -1, a nonpositive integer of the base series; the
    # level-1 weight (a_1 + i) / (b_1 + i) would divide by zero at i = 1
    # for b_1 = -1.  The control set has b_1 = 0.5.
    @pytest.mark.parametrize("alpha,resonant", [((0.3, -0.3, 0.6, 0.4), True),
                                                ((0.3, -1.3, 1.6, 0.4), True),
                                                ((0.2, 0.3, -2.5, 3.0), False)])
    def test_fundamental_matrix_resonant_lower_window(self, alpha, resonant):
        p = ParameterSet(1, alpha)
        if resonant:
            with pytest.raises(SeriesError, match="nonpositive integer"):
                fundamental_matrix(p, 0.3)
        else:
            assert np.isfinite(fundamental_matrix(p, 0.3)).all()


# Entries over the denominators 3, 7, 97 and their products; every window
# sum of even length is a non-integer, as for sample_rational_generic.
MIXED_DENOMINATORS = ParameterSet(3, (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 97),
                                      Fraction(2, 3), Fraction(1, 7), Fraction(-3, 97),
                                      Fraction(4, 21), Fraction(-139, 2037)), Fraction(0), 0)
EXACT_SETS = [pytest.param(sample_rational_generic(n, seed), id=f"n{n}-seed{seed}")
              for n in (1, 2, 3, 4) for seed in (1, 2)]
EXACT_SETS.append(pytest.param(MIXED_DENOMINATORS, id="mixed-denominators"))


def _product_formula(p, k, depth):
    """The closed form's level-0 formula with windows of its own, from rising
    factorials of window sums taken with Fraction arithmetic: component m
    is prod_{j<n-m} (u_j)_{i+1} / (v_j)_{i+1} * prod_{j<=m} (s_j)_i / (r_j)_i,
    where u_j = a_{j+1}, v_j = b_{j+1}, s_0 = a_0, r_0 is the full period,
    and s_j, r_j (j >= 1) are u_{n-j}, v_{n-j} started one period later."""
    n = p.n
    u = [p.partial_sum(2 * k - 2 * j + 1, 2 * j) for j in range(n)]
    v = [p.partial_sum(2 * k - 2 * j, 2 * j + 1) for j in range(n)]
    s = [p.partial_sum(2 * k + 2 * j + 3, 2 * n - 2 * j) for j in range(n + 1)]
    r = [p.partial_sum(2 * k + 2 * j + 2, 2 * n - 2 * j + 1) for j in range(n + 1)]
    vecs = []
    for i in range(depth + 1):
        vec = []
        for m in range(n + 1):
            x = Fraction(1)
            for j in range(n - m):
                x *= pochhammer(u[j], i + 1) / pochhammer(v[j], i + 1)
            for j in range(m + 1):
                x *= pochhammer(s[j], i) / pochhammer(r[j], i)
            vec.append(x)
        vecs.append(vec)
    return vecs


def _matvec(A, x):
    return [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in A]


def _rational_copy(p):
    """The set with each entry replaced by a nearby Fraction over a
    denominator <= 97, the last (odd) entry restoring sum(alpha) = 1."""
    alpha = [Fraction(complex(a).real).limit_denominator(97) for a in p.alpha]
    alpha[-1] += 1 - sum(alpha)
    return ParameterSet(p.n, tuple(alpha), Fraction(0), p.degeneracy)


def _exact_assembly(p, k, depth):
    """Gauge-frame rows of branch k assembled in Fractions: the base
    coefficient prod (a)_i / prod (b)_i / i! of the set's level-r windows,
    absorbed windows left out, carried through the level factors."""
    upper, lower = _branch_windows(p, k, p.partial_sum)
    rows = []
    for i in range(depth + 1):
        c = Fraction(1, math.factorial(i))
        for a in upper:
            if a is not None:
                c *= pochhammer(a, i)
        for b in lower:
            c /= pochhammer(b, i)
        rows.append(_level_weights(c, tuple(zip(upper[1:], lower)), i)[::-1])
    return rows


class TestExactOracles:
    """The exact vectors against the old Fraction arithmetic, each route on
    its own: the product formula and, at every level, the exact assembly;
    and the recurrence's defining equations."""

    @pytest.mark.parametrize("p", EXACT_SETS)
    def test_closed_form_is_product_formula(self, p):
        for k in range(p.n + 1):
            expected = _product_formula(p, k, 10)
            for depth in range(11):
                vecs = closed_form_vectors(p, k, depth)
                assert all(type(x) is Fraction for vec in vecs for x in vec)
                assert vecs == expected[:depth + 1]

    @pytest.mark.parametrize("n,r", [(n, r) for n in (1, 2, 3, 4) for r in range(n + 2)])
    def test_closed_form_is_exact_assembly_at_every_level(self, n, r):
        """The closed form serves every level; the recurrence refuses a
        confluent set, complex or Fraction."""
        q = sample_degenerate(n, r, seed=500 + 10 * n + r)
        p = _rational_copy(q)
        assert p.degeneracy == r and all(p.alpha[2 * i] == 0 for i in range(r))
        for k in range(n + 1):
            vecs = closed_form_vectors(p, k, 10)
            assert all(type(x) is Fraction for vec in vecs for x in vec)
            assert vecs == _exact_assembly(p, k, 10)
            for s in (q, p) if r else ():
                with pytest.raises(ValueError, match=f"this set is at level {r}$"):
                    recurrence_vectors(s, k, 3)

    @pytest.mark.parametrize("p", EXACT_SETS)
    def test_recurrence_solves_its_equations(self, p):
        n = p.n
        for k in range(n + 1):
            A0, A1 = _residue_matrices(n, 0, p.shifted(2 * k + 2).partial_sum)
            full = recurrence_vectors(p, k, 10)
            assert all(type(x) is Fraction for vec in full for x in vec)
            assert full[0][-1] == 1
            assert _matvec(A0, full[0]) == [0] * (n + 1)
            for i in range(10):
                x, y = full[i], full[i + 1]
                lhs = [a - (i + 1) * v for a, v in zip(_matvec(A0, y), y)]
                rhs = [a - b - i * v for a, b, v in zip(_matvec(A0, x), _matvec(A1, x), x)]
                assert lhs == rhs
            for depth in range(10):
                assert recurrence_vectors(p, k, depth) == full[:depth + 1]


def _complex_copy(p):
    return ParameterSet(p.n, tuple(complex(a) for a in p.alpha), complex(p.eta), p.degeneracy)


class TestArithmetics:
    """Each route is one loop for both arithmetics; the set's entries pick it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_float_route_matches_exact_route(self, n):
        p = sample_rational_generic(n, seed=80 + n)
        for route in (recurrence_vectors, closed_form_vectors):
            for k in range(n + 1):
                exact = np.array([[complex(v) for v in vec] for vec in route(p, k, 12)])
                approx = np.array(route(_complex_copy(p), k, 12))
                scale = np.max(np.abs(exact), axis=1, keepdims=True)
                assert np.max(np.abs(approx - exact) / scale) < 1e-12

    @pytest.mark.parametrize("n", [1, 3])
    def test_entries_are_in_the_sets_arithmetic(self, n):
        p = sample_rational_generic(n, seed=90 + n)
        for route in (recurrence_vectors, closed_form_vectors):
            for k in range(n + 1):
                assert all(type(v) is Fraction for vec in route(p, k, 6) for v in vec)
                assert all(type(v) is complex for vec in route(_complex_copy(p), k, 6) for v in vec)


def _perturb_largest(sol, rel=1e-6):
    """Copy of sol with its largest coefficient in rows 1..19 scaled by 1 + rel."""
    coeffs = sol.coeffs.copy()
    row, col = np.unravel_index(np.argmax(np.abs(coeffs[1:20])), coeffs[1:20].shape)
    coeffs[1 + row, col] *= 1.0 + rel
    return dataclasses.replace(sol, coeffs=coeffs)


class TestResidualSensitivity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generic_perturbation_detected(self, n):
        p = sample_generic(n, seed=130 + n)
        sys = build_fuchsian(p)
        for k in range(n + 1):
            bad = _perturb_largest(fundamental_solution(p, k, depth=60))
            assert recurrence_residual(sys, bad) > 1e-10
            assert component_operator_residual(p, bad, 0.4) > 1e-8

    # the largest coefficient of these sets sits at row 19, where at t = 0.4
    # its error was below the rounding of the low-degree terms: the point
    # residual read 5.7e-11 to 3.2e-10, the coefficient-level one 1.2e-8
    # to 3.7e-8
    @pytest.mark.parametrize("n,seed", [(3, 93), (2, 162)])
    def test_high_degree_perturbation_detected(self, n, seed):
        p = sample_generic(n, seed=seed)
        for k in range(n + 1):
            bad = _perturb_largest(fundamental_solution(p, k, depth=60))
            assert component_operator_residual(p, bad, 0.4) > 1e-9

    @pytest.mark.parametrize("n,r", [(1, 1), (2, 3), (3, 4)])
    def test_confluent_perturbation_detected(self, n, r):
        p = sample_degenerate(n, r, seed=200 + 10 * n + r)
        sys = build_confluent(p)
        for k in range(n + 1):
            bad = _perturb_largest(fundamental_solution(p, k, depth=60))
            assert recurrence_residual(sys, bad) > 1e-10


def _component_residual_loop(p, sol, t):
    """The components one at a time, each as its own series: a component
    i > k without its leading 0, one degree higher."""
    u = sol.original_coeffs()
    worst = 0.0
    for i in range(p.n + 1):
        later = i > sol.k
        worst = max(worst, operator_residual(component_ode_params(p, i),
                                             u[1:, i] if later else u[:, i], t,
                                             exponent=sol.exponent + (1.0 if later else 0.0)))
    return worst


PERTURBED_SETS = ([sample_generic(n, seed=130 + n) for n in (1, 2, 3)]
                  + [sample_generic(3, seed=93), sample_generic(2, seed=162)]
                  + [sample_degenerate(n, r, seed=200 + 10 * n + r)
                     for n, r in ((1, 1), (2, 3), (3, 4))])


class TestComponentResidualBlock:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_component_loop_on_true_solutions(self, n):
        for p in (sample_generic(n, seed=140 + n), sample_degenerate(n, n, seed=150 + n)):
            for k in range(n + 1):
                sol = fundamental_solution(p, k, depth=60)
                for t in (0.4, 0.25 + 0.2j):
                    block = component_operator_residual(p, sol, t)
                    assert block < 1e-12
                    assert abs(block - _component_residual_loop(p, sol, t)) < 1e-14

    @pytest.mark.parametrize("p", PERTURBED_SETS, ids=range(len(PERTURBED_SETS)))
    def test_equals_component_loop_on_perturbed_solutions(self, p):
        for k in range(p.n + 1):
            bad = _perturb_largest(fundamental_solution(p, k, depth=60))
            block = component_operator_residual(p, bad, 0.4)
            loop = _component_residual_loop(p, bad, 0.4)
            assert block > 1e-8 and loop > 1e-8
            assert block == pytest.approx(loop, rel=1e-6)


class TestExactSystemResidual:
    # the series derivative is exact, so true solutions read at rounding level
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generic_at_rounding_level(self, n):
        p = sample_generic(n, seed=90 + n)
        sys = build_fuchsian(p)
        for k in range(n + 1):
            sol = fundamental_solution(p, k, depth=60)
            for t in np.linspace(0.05, 0.5, 6):
                assert system_residual(sys, sol, t) < 1e-12

    @pytest.mark.parametrize("n,r", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3),
                                     (3, 1), (3, 2), (3, 3), (3, 4)])
    def test_confluent_at_rounding_level(self, n, r):
        p = sample_degenerate(n, r, seed=200 + 10 * n + r)
        sys = build_confluent(p)
        for k in range(n + 1):
            sol = fundamental_solution(p, k, depth=60)
            for t in (0.1, 0.45):
                assert system_residual(sys, sol, t) < 1e-12

    # Scaling row 1 by 1 + 1e-9 moves the series by about 1e-9 |c_1|; the
    # residual must see it above 1e-11 for a unit-size row (rows here range
    # from 0.02 to 2), far below the 1.9e-10 noise of a finite-difference
    # derivative.
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_perturbation_detected(self, n):
        p = sample_generic(n, seed=90 + n)
        sys = build_fuchsian(p)
        for k in range(n + 1):
            sol = fundamental_solution(p, k, depth=60)
            coeffs = sol.coeffs.copy()
            coeffs[1] *= 1.0 + 1e-9
            bad = dataclasses.replace(sol, coeffs=coeffs)
            assert system_residual(sys, bad, 0.3) > 1e-11 * np.max(np.abs(coeffs[1]))


def _per_row_table(p, k, depth):
    """fundamental_solution's table by the per-row rule: the base column
    from scalar term ratios, then each row carried through the level
    factors at its own index."""
    spec, windows = _branch_levels(p, k)
    base = [1.0 + 0.0j]
    for i in range(1, depth + 1):
        base.append(base[-1] * spec.term_ratio(i))
    return np.array([_level_weights(c, windows, i)[::-1] for i, c in enumerate(base)])


class TestFundamentalSolutions:
    def test_n1_k1_second_component_is_gauss(self):
        p = sample_generic(1, seed=19)
        sol = fundamental_solution(p, 1, depth=40)
        a = complex(p.partial_sum(1, 2))
        spec = HGSpec((a, complex(p.alpha[3])), (complex(p.partial_sum(2, 1)),))
        for t in (0.2, 0.45):
            direct, _ = eval_series(spec, t)
            assert sol.value(t)[1] == pytest.approx(direct, rel=1e-11)

    def test_exponent_vanishes_for_last_branch(self):
        p = sample_generic(3, seed=28)
        assert fundamental_solution(p, 3).exponent == 0
        assert complex(branch_exponent(p, 3)) == 0

    def test_coeffs_agree_with_closed_form(self):
        sets = [sample_generic(2, seed=33)] + [sample_degenerate(n, r, seed=33 + 10 * n + r)
                                               for n in (1, 2, 3) for r in range(1, n + 2)]
        for p in sets:
            for k in range(p.n + 1):
                hg = fundamental_solution(p, k, depth=15)
                cf = closed_form_coeffs(p, k, depth=15)
                scale = np.maximum(np.abs(cf.coeffs), 1.0)
                assert np.max(np.abs(hg.coeffs - cf.coeffs) / scale) < 1e-11, (p.n, p.degeneracy, k)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_system_residual_small(self, n):
        p = sample_generic(n, seed=90 + n)
        sys = build_fuchsian(p)
        for k in range(n + 1):
            sol = fundamental_solution(p, k, depth=60)
            assert recurrence_residual(sys, sol) < 1e-12
            for t in np.linspace(0.05, 0.5, 6):
                assert system_residual(sys, sol, t) < 1e-9

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_value_keeps_every_gauge_row(self, n):
        # reference: Horner over all depth+1 gauge rows, then the frame map
        # component by component; the components m > k carry the top row
        # c_depth at degree depth+1, which original_coeffs() does not hold
        p = sample_generic(n, seed=140 + n, margin=0.02)
        for k in range(n + 1):
            sol = fundamental_solution(p, k)
            for t in (0.6, -0.45 + 0.4j, 0.6j):
                g = np.zeros(n + 1, dtype=complex)
                for row in sol.coeffs[::-1]:
                    g = g * t + row
                u = [g[m + n - k] if m <= k else t * g[m - k - 1] for m in range(n + 1)]
                want = t ** sol.exponent * np.array(u)
                assert np.linalg.norm(sol.value(t) - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 7) for r in range(n + 2)])
    def test_columns_match_per_level_assembly(self, n, r):
        # each level-l branch function on its own: its prefactor times the
        # Taylor coefficients of its spec, placed in gauge column n - l
        p = sample_degenerate(n, r, seed=400 + 10 * n + r) if r else sample_generic(n, seed=400 + n)
        for k in range(n + 1):
            self._assert_matches_per_level(p, k)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_table_is_the_per_row_rule(self, n):
        for r in range(n + 2):
            p = (sample_degenerate(n, r, seed=500 + n, margin=0.02) if r
                 else sample_generic(n, seed=500 + n, margin=0.02))
            for k in range(n + 1):
                rows = _per_row_table(p, k, 60)
                for depth in (0, 1, 60):
                    got, want = fundamental_solution(p, k, depth).coeffs, rows[:depth + 1]
                    assert got.shape == want.shape == (depth + 1, n + 1)
                    scale = np.abs(want).max(axis=0)
                    assert (np.abs(got - want).max(axis=0) <= 4e-15 * scale).all(), (r, k, depth)

    @pytest.mark.parametrize("alpha", [[0.5, 0.25, 0.25, -0.25, 0.125, 0.125],
                                       [0.75, 0.25, 0.25, -0.5, 0.125, 0.125],
                                       [0.5, 0.25, -1.5 + 1e-300j, -0.5, 1.0, 1.25]])
    def test_table_raises_as_the_per_row_rule(self, alpha):
        # the first two are the sets of test_zero_lower_window_raises_series_error;
        # in the third, b_1 = -2 + 1e-300j of branch 1 fails the level factor at
        # index 2 and, from depth 3 on, the term ratio at term 3
        p = pset(alpha)
        messages = set()
        for k in range(p.n + 1):
            for depth in (0, 1, 2, 3, 10):
                try:
                    _per_row_table(p, k, depth)
                except SeriesError as exc:
                    messages.add(str(exc))
                    with pytest.raises(SeriesError) as table:
                        fundamental_solution(p, k, depth)
                    assert str(table.value) == str(exc)
                else:
                    fundamental_solution(p, k, depth)
        assert messages

    @pytest.mark.parametrize("alpha,k", [
        ([1e200 + 1j, 1e200 + 1j, -2e200 - 2j, 1.0], 0),          # the base column, at term 1
        ([0.5, 0.5 - 1e-200j, -1e200 + 1e-200j, 1e200], 1),       # a_1 / b_1, at index 0
    ])
    def test_table_overflow_stays_silent(self, alpha, k):
        # the overflow is where the per-row rule's is; value() reports it
        p = pset(alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = fundamental_solution(p, k, depth=6)
        want = _per_row_table(p, k, 6)
        assert not np.isfinite(want).all()
        assert np.array_equal(np.isfinite(sol.coeffs), np.isfinite(want))
        with pytest.raises(SeriesError, match="not finite"):
            sol.value(0.5)

    def test_columns_match_per_level_assembly_small_window(self):
        p = sample_generic(6, 567, margin=0.02)
        assert abs(branch_spec(p, 6, 0)[1].upper[1]) < 1e-3      # a_1 = 9.28e-4
        self._assert_matches_per_level(p, 6)

    @staticmethod
    def _assert_matches_per_level(p, k, depth=60):
        got = fundamental_solution(p, k, depth).coeffs
        upper, lower = _branch_windows(p, k, p.partial_sum)
        for l in range(p.n + 1):
            # prefactor prod_{i<=l} a_i / b_i, 1 / b_i for an absorbed a_i
            pref = np.prod([(1.0 if a is None else a) / b for a, b in zip(upper[1:l + 1], lower)])
            want = pref * series_coefficients(branch_spec(p, k, l)[1], depth)
            col = got[:, p.n - l]
            assert np.linalg.norm(col - want) <= 1e-13 * np.linalg.norm(want), (k, l)

    @pytest.mark.parametrize("k,l", [(1, 1), (2, 2)])
    def test_zero_lower_window_raises_series_error(self, k, l):
        # alpha_2 + alpha_3 = 0 is b_1 of branch 1, and alpha_2 + ... +
        # alpha_5 = 0 is b_2 of branch 2
        alpha = ([0.5, 0.25, 0.25, -0.25, 0.125, 0.125] if l == 1
                 else [0.75, 0.25, 0.25, -0.5, 0.125, 0.125])
        p = pset(alpha)
        assert _branch_windows(p, k, p.partial_sum)[1][l - 1] == 0
        for level in range(p.n + 1):
            with pytest.raises(SeriesError):
                branch_spec(p, k, level)
        with pytest.raises(SeriesError):
            fundamental_solution(p, k)
        with pytest.raises(SeriesError):
            fundamental_matrix(p, 0.3)

    def test_branch_spec_rejects_out_of_range(self):
        for k, l in ((0, -1), (0, 2), (-1, 0), (2, 0)):
            with pytest.raises(ValueError, match="out of range"):
                branch_spec(P_N1, k, l)

    def test_solution_matrix_invertible(self):
        for n in (1, 2, 3):
            p = sample_generic(n, seed=110 + n)
            M = fundamental_matrix(p, 0.1)
            assert scaled_det(M) > 1e-6

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_matrix_matches_transport_near_rim(self, n):
        # near the rim each branch series needs hundreds of terms
        p = sample_generic(n, seed=7, margin=0.02)
        Y = fundamental_matrix(p, 0.5)
        rhs = linear_rhs(build_fuchsian(p))
        for t in (0.9, 0.97):
            M = fundamental_matrix(p, t)
            for k in range(n + 1):
                ref = integrate(rhs, Y[:, k], 0.5, t, rtol=1e-12, atol=1e-14).final
                assert np.linalg.norm(M[:, k] - ref) <= 1e-9 * np.linalg.norm(ref)

    @staticmethod
    def _per_spec_matrix(p, t):
        # each level-l branch function summed on its own: its prefactor
        # times eval_series of its spec, placed in gauge column n - l
        cols = []
        for k in range(p.n + 1):
            row = [pref * eval_series(spec, t)[0]
                   for pref, spec in (branch_spec(p, k, l) for l in range(p.n, -1, -1))]
            sol = SeriesSolution(k, complex(branch_exponent(p, k)), np.array([row], dtype=complex))
            cols.append(sol.value(t))
        return np.stack(cols, axis=1)

    @classmethod
    def _assert_matches_per_spec(cls, p, t):
        M, ref = fundamental_matrix(p, t), cls._per_spec_matrix(p, t)
        for k in range(p.n + 1):
            assert np.linalg.norm(M[:, k] - ref[:, k]) <= 1e-13 * np.linalg.norm(ref[:, k])
        return M

    @pytest.mark.parametrize("n,r", [(n, 0) for n in range(1, 9)]
                             + [(n, r) for n in (1, 2, 3) for r in range(1, n + 2)])
    def test_matrix_levels_match_per_spec_sums(self, n, r):
        if r:
            p = sample_degenerate(n, r, seed=240 + 10 * n + r)
        else:
            p = sample_generic(n, seed=60 + n, margin=0.02 if n > 5 else 0.05)
        for t in (0.3, -0.7, 0.9, 0.25 - 0.5j, 0.9j, -0.6 - 0.6j):
            self._assert_matches_per_spec(p, t)

    def test_matrix_level_with_zero_weight(self):
        # alpha_3 = 0 is the upper window a_1 of branch 1: its level-1
        # function has prefactor 0 and only zero terms, and must still stop
        M = self._assert_matches_per_spec(pset([0.3, 0.2, 0.5, 0.0]), 0.4)
        assert M[0, 1] == 0

    def test_value_raises_where_not_finite(self):
        # t^600 overflows at t = 5; the product with the tiny coefficients
        # is then nan instead of the solution
        sol = fundamental_solution(sample_degenerate(2, 1, 3), 1, depth=600)
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # the overflow raises nothing but SeriesError
            with pytest.raises(SeriesError, match="not finite"):
                sol.value(5.0)

    def test_matrix_raises_outside_disc(self):
        with pytest.raises(SeriesError):
            fundamental_matrix(sample_generic(2, seed=7), 1.2)

    def test_matrix_raises_at_origin(self):
        with pytest.raises(SeriesError, match="t = 0 is a singular point of branch 0"):
            fundamental_matrix(sample_generic(2, seed=7), 0)

    def test_analytic_branch_has_value_at_origin(self):
        sol = fundamental_solution(sample_generic(2, seed=7), 2, depth=10)
        assert sol.exponent == 0
        assert np.array_equal(sol.value(0), sol.coeffs[0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_component_operator_residuals(self, n):
        p = sample_generic(n, seed=130 + n)
        for k in range(n + 1):
            sol = fundamental_solution(p, k, depth=60)
            assert component_operator_residual(p, sol, 0.4) < 1e-9

    def test_component_params_n1(self):
        p = P_N1
        spec1 = component_ode_params(p, 1)
        assert spec1.upper == (complex(p.partial_sum(1, 2)), complex(p.alpha[3]))
        assert spec1.lower == (complex(p.partial_sum(2, 1)),)
        spec0 = component_ode_params(p, 0)
        assert spec0.upper[1] == pytest.approx(spec1.upper[1] + 1)
        assert spec0.lower[0] == pytest.approx(spec1.lower[0] + 1)

    def test_component_params_confluent_shift(self):
        p = sample_degenerate(2, 1, seed=14)
        spec = component_ode_params(p, 0)
        base = component_ode_params(p, 2)
        # all upper entries shifted by one for the first component
        assert len(spec.upper) == 2
        assert spec.upper[-1] == pytest.approx(base.upper[-1] + 1)


class TestConfluentSolutions:
    def test_prefactor_trivial_at_level_zero(self):
        p = sample_degenerate(2, 2, seed=3)
        pref, _ = branch_spec(p, 1, 0)
        assert pref == 1.0

    @pytest.mark.parametrize("n,r", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3),
                                     (3, 1), (3, 2), (3, 3), (3, 4)])
    def test_satisfy_confluent_system(self, n, r):
        p = sample_degenerate(n, r, seed=200 + 10 * n + r)
        sys = build_confluent(p)
        for k in range(n + 1):
            sol = fundamental_solution(p, k, depth=60)
            assert recurrence_residual(sys, sol) < 1e-12
            for t in (0.1, 0.45):
                assert system_residual(sys, sol, t) < 1e-9
            assert recurrence_residual(sys, closed_form_coeffs(p, k, 12)) < 1e-13

    def test_confluent_component_operators(self):
        p = sample_degenerate(2, 1, seed=220)
        for k in range(3):
            sol = fundamental_solution(p, k, depth=60)
            assert component_operator_residual(p, sol, 0.4) < 1e-9

    def test_confluent_solution_matrix(self):
        p = sample_degenerate(2, 2, seed=230)
        assert scaled_det(fundamental_matrix(p, 0.1)) > 1e-6
