import math

import numpy as np
import pytest

from cpvi.hyperfn import (
    HGSpec,
    SeriesError,
    eval_series,
    eval_series_jet,
    ode_residual,
    operator_residual,
    pochhammer,
    riemann_scheme,
    series_coefficients,
)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(5.3, 0) == 1

    def test_factorial(self):
        assert pochhammer(1, 4) == 24

    def test_plain_product(self):
        assert pochhammer(2.5, 3) == pytest.approx(2.5 * 3.5 * 4.5)


class TestEvalSeries:
    def test_binomial_oracle(self):
        # an upper parameter equal to the lower one cancels: (1-t)^(-a0)
        spec = HGSpec((0.5, 0.7), (0.7,))
        val, _ = eval_series(spec, 0.25)
        assert val == pytest.approx((1 - 0.25) ** -0.5, rel=1e-12)

    def test_log_oracle(self):
        spec = HGSpec((1.0, 1.0), (2.0,))
        val, _ = eval_series(spec, 0.5)
        assert val == pytest.approx(-math.log(1 - 0.5) / 0.5, rel=1e-12)

    def test_at_origin(self):
        spec = HGSpec((0.3, -1.2, 4.0), (0.9, 2.4))
        val, terms = eval_series(spec, 0.0)
        assert val == 1.0 and terms == 1

    def test_upper_lower_cancellation(self):
        c = 1.37
        lhs, _ = eval_series(HGSpec((0.4, 0.8, c), (1.1, c)), 0.3)
        rhs, _ = eval_series(HGSpec((0.4, 0.8), (1.1,)), 0.3)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_divergence_outside_disc(self):
        with pytest.raises(SeriesError):
            eval_series(HGSpec((0.5, 0.7), (0.9,)), 1.0)

    def test_nonpositive_integer_lower_rejected(self):
        with pytest.raises(SeriesError):
            HGSpec((0.5,), (-2.0,))

    def test_confluent_entire(self):
        # one upper, one lower with factorial: entire, fine at t = 2
        val, _ = eval_series(HGSpec((0.7,), (1.3,)), 2.0)
        assert np.isfinite(val.real)

    def test_conjugate_symmetry(self):
        spec = HGSpec((0.4, 0.9, -0.3), (1.2, 0.8))
        t = 0.3 + 0.2j
        v1, _ = eval_series(spec, t)
        v2, _ = eval_series(spec, np.conj(t))
        assert v1 == pytest.approx(np.conj(v2), rel=1e-12)

    def test_frobenius_ratio(self):
        spec = HGSpec((0.4, 0.9, -0.3), (1.2, 0.8))
        c = series_coefficients(spec, 50)
        for i in range(1, 51):
            num = np.prod([a + i - 1 for a in spec.upper])
            den = i * np.prod([b + i - 1 for b in spec.lower])
            assert c[i] / c[i - 1] == pytest.approx(num / den, rel=1e-12)

    def test_jet_matches_finite_differences(self):
        # h balances the O(h^2) stencil bias against series-truncation noise
        spec = HGSpec((0.5, 0.7, 1.1), (0.9, 1.4))
        t, h = 0.35, 1e-3
        (f, fp, fpp), _ = eval_series_jet(spec, t, order=2)
        f_plus, _ = eval_series(spec, t + h)
        f_minus, _ = eval_series(spec, t - h)
        assert fp == pytest.approx((f_plus - f_minus) / (2 * h), rel=1e-5)
        assert fpp == pytest.approx((f_plus - 2 * f + f_minus) / h**2, rel=1e-4)

    @pytest.mark.parametrize("a,c,t", [(0.7, 1.3, 0.4), (-0.35, 0.6, -0.7), (1.8, 2.5, 0.3 + 0.5j)])
    def test_jet_closed_form(self, a, c, t):
        # 2F1(a, c; c; t) = (1 - t)^(-a)
        (f, fp, fpp), _ = eval_series_jet(HGSpec((a, c), (c,)), t, order=2)
        assert f == pytest.approx((1 - t) ** -a, rel=1e-12)
        assert fp == pytest.approx(a * (1 - t) ** (-a - 1), rel=1e-12)
        assert fpp == pytest.approx(a * (a + 1) * (1 - t) ** (-a - 2), rel=1e-12)


class TestTermRatio:
    def test_parameter_near_zero_keeps_its_accuracy(self):
        # branch 6 of this set has the upper window a_1 = 9.28e-4; forming
        # (a_1 + 1) - 1 instead of a_1 + 0 cost 1.04e-13 relative
        mpmath = pytest.importorskip("mpmath")
        from cpvi.linear import branch_spec
        from cpvi.params import sample_generic

        _, spec = branch_spec(sample_generic(6, 567, margin=0.02), 6, 0)
        assert min(abs(a) for a in spec.upper) < 1e-3
        with mpmath.workdps(40):
            exact = mpmath.mpf(1)
            for a in spec.upper:
                exact *= mpmath.mpc(a)
            for b in spec.lower:
                exact /= mpmath.mpc(b)
            exact = complex(exact)
        assert abs(spec.term_ratio(1) - exact) <= 1e-15 * abs(exact)


class TestOdeResidual:
    def test_exact_solution_cancels(self):
        spec = HGSpec((0.5, 0.7), (0.9,))
        assert ode_residual(spec, 0.4) < 1e-10

    def test_perturbed_parameter_detected(self):
        spec = HGSpec((0.5, 0.7), (0.9,))
        bad = HGSpec((0.6, 0.7), (0.9,))
        # the perturbed series no longer solves the original-operator budget
        assert ode_residual(bad, 0.4) < 1e-10  # solves its own operator
        coeffs = series_coefficients(spec, 60)
        assert operator_residual(bad, coeffs, 0.4) >= 1e-4

    def test_confluent_needs_factorial(self):
        spec = HGSpec((0.7,), (1.3,))
        assert ode_residual(spec, 2.0) < 1e-10
        # the bare product series is the spec with an extra upper parameter 1
        bare = series_coefficients(HGSpec((0.7, 1.0), (1.3,)), 40)
        assert operator_residual(spec, bare, 0.5) >= 1e-4

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_small_across_disc(self, t):
        spec = HGSpec((0.45, 0.8, -0.2, 1.3), (0.95, 1.25, 0.6))
        assert ode_residual(spec, t) < 1e-8


class TestRiemannScheme:
    def test_gauss_exponent_at_one(self):
        scheme = riemann_scheme(HGSpec((0.3, 0.45), (0.8,)))
        assert scheme["one"][0] == 0
        assert scheme["one"][1] == pytest.approx(0.8 - 0.3 - 0.45)

    def test_exponent_sum_matches_trace_identity(self):
        rng = np.random.default_rng(42)
        n = 2
        spec = HGSpec(tuple(rng.uniform(0.1, 0.9, n + 1)), tuple(rng.uniform(0.55, 0.95, n)))
        scheme = riemann_scheme(spec)
        total = sum(scheme["zero"]) + sum(scheme["one"]) + sum(scheme["infinity"])
        assert total == pytest.approx(n * (n + 1) / 2, abs=1e-12)

    def test_origin_entries(self):
        scheme = riemann_scheme(HGSpec((0.0, 1.0), (1.0,)))
        assert scheme["zero"][0] == 0
        assert scheme["zero"][1] == pytest.approx(0.0)
