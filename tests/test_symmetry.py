from fractions import Fraction

import numpy as np
import pytest

from cpvi.dynamics import (
    constraint_value,
    integrate,
    pushforward_field,
    symmetric_field,
    symmetric_rhs,
)
from cpvi.params import sample_generic, sample_rational_generic
from cpvi.symmetry import (
    SingularTransformError,
    _transform_params,
    apply_generator,
    apply_word,
    cartan_matrix,
    coordinate,
    poisson_bracket,
    relation_words,
    sample_regular_state,
    verify_relations,
    word_deviation,
)


class TestCartan:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shape_and_entries(self, n):
        a = cartan_matrix(n)
        m = 2 * n + 2
        assert a.shape == (m, m)
        assert np.all(np.diag(a) == 2)
        assert a[0, m - 1] == -1 and a[m - 1, 0] == -1
        assert np.all(a.sum(axis=1) == 0)


class TestPoissonBracket:
    def test_canonical_pairs(self):
        x = np.array([0.7, -1.1], dtype=complex)
        y = np.array([0.4, 0.9], dtype=complex)
        b = poisson_bracket(coordinate("x", 0), coordinate("y", 0))
        assert b(x, y) == -1
        b = poisson_bracket(coordinate("x", 0), coordinate("y", 1))
        assert b(x, y) == 0
        b = poisson_bracket(coordinate("y", 0), coordinate("x", 0))
        assert b(x, y) == 1

    def test_linearity_with_time_weight(self):
        t = 0.35
        x = np.array([0.7, -1.1], dtype=complex)
        y = np.array([0.4, 0.9], dtype=complex)
        f = lambda xx, yy: xx[1] - t * xx[0]
        b = poisson_bracket(f, coordinate("y", 0))
        assert b(x, y) == t

    def test_fraction_partials_give_a_fraction(self):
        x = [Fraction(2, 3), Fraction(-5, 7)]
        y = [Fraction(1, 4), Fraction(3, 11)]
        b = poisson_bracket(lambda xx, yy: xx[0] * yy[1], lambda xx, yy: xx[1] * yy[0])(x, y)
        # {x0 y1, x1 y0} = x0 y0 - y1 x1
        assert type(b) is Fraction and b == Fraction(2, 3) * Fraction(1, 4) + Fraction(15, 77)


class TestGenerators:
    def setup_method(self):
        self.p = sample_generic(2, seed=3)
        rng = np.random.default_rng(5)
        self.x, self.y = sample_regular_state(2, rng, 0.4)
        self.t = 0.4

    def test_cycle_generator_parameter_action(self):
        _, _, p2 = apply_generator(0, self.x, self.y, self.p, self.t)
        a = self.p.alpha
        assert p2.alpha[0] == pytest.approx(-a[0])
        assert p2.alpha[1] == pytest.approx(a[1] + a[0])
        assert p2.alpha[-1] == pytest.approx(a[-1] + a[0])
        for j in range(2, 2 * self.p.n + 1):
            assert p2.alpha[j] == a[j]

    def test_odd_generator_state_action(self):
        x2, y2, _ = apply_generator(1, self.x, self.y, self.p, self.t)
        assert x2[0] == pytest.approx(self.x[0] + complex(self.p.alpha[1]) / self.y[0])
        assert np.all(y2 == self.y)
        assert np.all(x2[1:] == self.x[1:])

    def test_eta_action_alternates(self):
        _, _, p1 = apply_generator(1, self.x, self.y, self.p, self.t)
        assert p1.eta == pytest.approx(complex(self.p.eta) - complex(self.p.alpha[1]))
        _, _, p2 = apply_generator(2, self.x, self.y, self.p, self.t)
        assert p2.eta == pytest.approx(complex(self.p.eta) + complex(self.p.alpha[2]))

    def test_constraint_preserved(self):
        p = self.p
        x, y = self.x.copy(), self.y.copy()
        # move onto the constraint manifold first
        y[0] = -(complex(p.eta) + np.sum(x[1:] * y[1:])) / x[0]
        c0 = constraint_value(x, y, p.eta)
        assert abs(c0) < 1e-12
        for i in range(2 * p.n + 2):
            x2, y2, p2 = apply_generator(i, x, y, p, self.t)
            assert abs(constraint_value(x2, y2, p2.eta)) < 1e-10

    def test_vanishing_denominator_reported(self):
        x = self.x.copy()
        y = self.y.copy()
        y[0] = 0.0
        with pytest.raises(SingularTransformError, match="y_0"):
            apply_generator(1, x, y, self.p, self.t)

    def test_nonpositive_time_rejected_for_cycle_generators(self):
        with pytest.raises(ValueError):
            apply_generator(0, self.x, self.y, self.p, -0.4)

    @pytest.mark.parametrize("t", [0.0, -0.4 + 0j, complex(-0.4, -0.0)])
    @pytest.mark.parametrize("i", [0, 5])
    def test_branch_cut_rejected_for_cycle_generators(self, i, t):
        with pytest.raises(ValueError, match="branch cut"):
            apply_generator(i, self.x, self.y, self.p, t)


class TestRelations:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_defining_relations_hold(self, n):
        worst = verify_relations(n, trials=6, seed=11 * n + 1)
        assert worst["square"] < 1e-12
        assert worst["braid"] < 1e-12
        assert worst["commute"] < 1e-12
        assert worst["alpha_total"] < 1e-14

    def test_braid_deviation_is_relative_to_the_state_scale(self):
        # this word passes through a state of modulus about 160, where
        # rounding alone puts the absolute deviation near 1e-11
        p = sample_generic(1, seed=10)
        x, y = sample_regular_state(1, np.random.default_rng(10), 0.4)
        assert word_deviation((0, 1) * 3, x, y, p, 0.4) < 1e-12

    # off the cut the cycle-closing generators take the principal branch of t^alpha
    @pytest.mark.parametrize("t", [0.4 + 0.3j, -0.5 + 0.2j, 1.7 - 0.9j])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_relations_hold_at_complex_time(self, n, t):
        rng = np.random.default_rng(40 + n)
        for seed in range(4):
            p = sample_generic(n, seed=70 + seed)
            x, y = sample_regular_state(n, rng, t)
            for _, word in relation_words(n):
                assert word_deviation(word, x, y, p, t) < 1e-12

    def test_word_error_reports_position(self):
        p = sample_generic(1, seed=2)
        x = np.array([1.0, 1.2], dtype=complex)
        y = np.array([0.5, 0.0], dtype=complex)  # y_1 = 0 blocks generator 3
        with pytest.raises(SingularTransformError, match="position 1"):
            apply_word([1, 3], x, y, p, 0.4)

    def test_relation_words_cover_all_pairs(self):
        n = 2
        words = relation_words(n)
        kinds = [k for k, _ in words]
        m = 2 * n + 2
        assert kinds.count("square") == m
        assert kinds.count("braid") == m          # cyclic neighbours
        assert kinds.count("commute") == m * (m - 1) // 2 - m


def _rational_state(n, rng):
    """x and y with nonzero entries and pairwise distinct x, over the denominator 17."""
    x = [Fraction(int(v), 17) for v in rng.choice(np.r_[-40:-4, 5:41], n + 1, replace=False)]
    y = [Fraction(int(v), 17) for v in rng.choice(np.r_[-40:-4, 5:41], n + 1)]
    return x, y


class TestExactCertificates:
    """The t-free generators 1..2n on Fraction inputs: every relation is an
    exact identity, checked with ==."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_t_free_relations_are_exact(self, n):
        p = sample_rational_generic(n, seed=90 + n).with_eta(Fraction(3, 7))
        words = [w for _, w in relation_words(n) if all(1 <= i <= 2 * n for i in w)]
        assert len(words) == 2 * n + n * (2 * n - 1)     # 2n squares and every pair
        rng = np.random.default_rng(n)
        for _ in range(3):
            x, y = _rational_state(n, rng)
            for word in words:
                x2, y2, p2 = apply_word(word, x, y, p, Fraction(2, 5))
                assert list(x2) == x and list(y2) == y
                assert p2.alpha == p.alpha and p2.eta == p.eta
                assert all(type(v) is Fraction for v in (*x2, *y2, *p2.alpha, p2.eta))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_t_free_generators_map_the_field_exactly(self, n):
        # generator i carries the level-0 field at p to the field at _transform_params(p, i)
        p = sample_rational_generic(n, seed=90 + n).with_eta(Fraction(3, 7))
        t = Fraction(2, 5)
        rng = np.random.default_rng(10 + n)
        for _ in range(3):
            x, y = _rational_state(n, rng)
            for i in range(1, 2 * n + 1):
                push = pushforward_field(lambda a, b: apply_generator(i, a, b, p, t)[:2],
                                         lambda a, b, s: symmetric_field(p, a, b, s), x, y, t)
                xg, yg, pg = apply_generator(i, x, y, p, t)
                assert pg == _transform_params(p, i)
                assert list(push) == list(np.concatenate(symmetric_field(pg, xg, yg, t)))
                assert all(type(v) is Fraction for v in push)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_parameter_action_is_an_exact_involution(self, n):
        p = sample_rational_generic(n, seed=90 + n).with_eta(Fraction(3, 7))
        for i in range(2 * n + 2):
            assert _transform_params(_transform_params(p, i), i) == p


class TestSolutionMapping:
    @pytest.mark.parametrize("n", [1, 2])
    def test_transformed_trajectory_solves_transformed_system(self, n):
        """Pointwise mapping check along an integrated flow: the chain rule
        derivative of the transformed state equals the field with
        transformed parameters."""
        p = sample_generic(n, seed=21 + n)
        rng = np.random.default_rng(31 + n)
        x, y = sample_regular_state(n, rng, 0.35)
        y[0] = -(complex(p.eta) + np.sum(x[1:] * y[1:])) / x[0]
        traj = integrate(symmetric_rhs(p), np.concatenate((x, y)), 0.35, 0.45,
                         rtol=1e-11, atol=1e-13, dense_ts=np.linspace(0.35, 0.45, 6))
        samples, ts = traj.states, traj.ts
        h = 1e-6
        for i in range(2 * n + 2):
            for state, t in zip(samples, ts):
                xs, ys = state[: n + 1], state[n + 1:]
                try:
                    xg, yg, pg = apply_generator(i, xs, ys, p, t)
                    xgp, ygp, _ = apply_generator(i, xs, ys, p, t + h)
                    xgm, ygm, _ = apply_generator(i, xs, ys, p, t - h)
                except SingularTransformError:
                    continue
                fx, fy = symmetric_field(p, xs, ys, t)
                # chain rule: state Jacobian times field, plus explicit d/dt
                jac_dot = np.zeros(2 * n + 2, dtype=complex)
                for idx in range(n + 1):
                    for arr, vel in ((0, fx[idx]), (1, fy[idx])):
                        step = h * max(1.0, abs((xs if arr == 0 else ys)[idx]))
                        xp, yp = xs.copy(), ys.copy()
                        xm, ym = xs.copy(), ys.copy()
                        if arr == 0:
                            xp[idx] += step
                            xm[idx] -= step
                        else:
                            yp[idx] += step
                            ym[idx] -= step
                        xa, ya, _ = apply_generator(i, xp, yp, p, t)
                        xb, yb, _ = apply_generator(i, xm, ym, p, t)
                        jac_dot += np.concatenate((xa - xb, ya - yb)) / (2 * step) * vel
                ddt = np.concatenate((xgp - xgm, ygp - ygm)) / (2 * h)
                fxg, fyg = symmetric_field(pg, xg, yg, t)
                target = np.concatenate((fxg, fyg))
                defect = jac_dot + ddt - target
                assert np.linalg.norm(defect) / max(1.0, np.linalg.norm(target)) < 1e-6
