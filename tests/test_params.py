from fractions import Fraction

import numpy as np
import pytest

from cpvi import params
from cpvi.params import (
    ParameterSet,
    SamplingError,
    degenerate_replace,
    genericity_margin,
    integer_windows,
    partial_sum,
    sample_degenerate,
    sample_generic,
    sample_rational_generic,
)


def make_set(alpha, eta=0.0, degeneracy=0):
    n = len(alpha) // 2 - 1
    return ParameterSet(n, tuple(complex(a) for a in alpha), complex(eta), degeneracy)


P1 = make_set([0.1, 0.2, 0.3, 0.4])


class TestPartialSum:
    def test_negative_window_is_empty(self):
        assert partial_sum(P1, 0, -3) == 0
        assert partial_sum(P1, 5, -1) == 0

    def test_full_period_is_one(self):
        p = sample_generic(2, seed=11)
        for k in range(0, 2 * p.n + 2, 2):
            assert abs(partial_sum(p, k + 2, 2 * p.n + 1) - 1.0) < 1e-12

    def test_direct_window(self):
        assert abs(partial_sum(P1, 2, 1) - 0.7) < 1e-15

    def test_additivity(self):
        p = sample_generic(3, seed=5)
        for k in range(-3, 9):
            for l in range(4):
                for m in range(4):
                    left = partial_sum(p, k, l) + partial_sum(p, k + l + 1, m)
                    assert abs(left - partial_sum(p, k, l + m + 1)) < 1e-13

    def test_periodicity_in_start(self):
        p = sample_generic(2, seed=2)
        period = 2 * p.n + 2
        for k in range(period):
            for l in range(7):
                assert partial_sum(p, k, l) == partial_sum(p, k + period, l)

    def test_windows_longer_than_period_pick_up_full_sums(self):
        assert abs(partial_sum(P1, 3, 3 + 4) - (partial_sum(P1, 3, 3) + 1.0)) < 1e-14

    def test_cyclic_rule_at_negative_and_wrapped_indices(self):
        # alpha_i is alpha_{i mod 2n+2}; a window is the sum of those entries, term by term
        p = sample_rational_generic(2, seed=9)
        m = 2 * p.n + 2
        assert [p.alpha_at(i) for i in range(-m, 0)] == list(p.alpha)
        assert [p.alpha_at(i) for i in range(m, 2 * m)] == list(p.alpha)
        assert p.alpha_at(-1) == p.alpha[m - 1] and p.alpha_at(-2 * m - 3) == p.alpha[m - 3]
        for k in range(-2 * m, 2 * m):
            for l in range(-1, 2 * m):
                want = sum((p.alpha[(k + j) % m] for j in range(l + 1)), Fraction(0))
                assert p.partial_sum(k, l) == want, (k, l)
        assert p.partial_sum(-1, 1) == p.alpha[m - 1] + p.alpha[0]


class TestIntegerWindows:
    @staticmethod
    def assert_windows_exact(p):
        """window(k, l) / d is partial_sum(k, l) exactly, for starts over three periods and
        lengths from empty to three periods."""
        d, window = integer_windows(p)
        m = 2 * p.n + 2
        for k in range(-m, 2 * m):
            for l in range(-2, 3 * m):
                assert Fraction(window(k, l), d) == p.partial_sum(k, l), (k, l)
        return d

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rational_sets(self, n):
        assert self.assert_windows_exact(sample_rational_generic(n, seed=n)) == 97

    def test_mixed_denominators(self):
        alpha = (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 97), Fraction(2, 3), Fraction(3, 7))
        alpha += (1 - sum(alpha),)
        p = ParameterSet(2, alpha, Fraction(0), 0)
        assert self.assert_windows_exact(p) == 3 * 7 * 97

    def test_float_set_has_no_integer_windows(self):
        assert integer_windows(P1) is None
        assert integer_windows(sample_generic(2, seed=3)) is None


class TestInvariants:
    def test_sum_constraint_enforced(self):
        with pytest.raises(ValueError):
            make_set([0.1, 0.2, 0.3, 0.5])

    def test_degenerate_zero_slots_enforced(self):
        with pytest.raises(ValueError):
            make_set([0.1, 0.2, 0.3, 0.4], degeneracy=1)
        make_set([0.0, 0.3, 0.3, 0.4], degeneracy=1)  # fine

    def test_unit_scale_sets_keep_the_absolute_tolerance(self):
        with pytest.raises(ValueError):
            make_set([0.1, 0.2, 0.3, 0.4 + 1e-9])
        with pytest.raises(ValueError):
            make_set([1e-9, 0.2, 0.3, 0.5 - 1e-9], degeneracy=1)

    def test_tolerance_scales_with_the_largest_entry(self):
        big = 1e8
        make_set([-big, big + 0.3 + 1e-9, 0.3, 0.4])   # rounding level at scale 1e8
        make_set([1e-9, 0.3 - 1e-9 - big, 0.3 + big, 0.4], degeneracy=1)
        with pytest.raises(ValueError):
            make_set([-big, big + 0.3 + 1e-2, 0.3, 0.4])

    def test_shift_relabels_cyclically(self):
        p = make_set([0.1, 0.2, 0.3, 0.4])
        q = p.shifted(3)
        assert q.alpha == (0.4 + 0j, 0.1 + 0j, 0.2 + 0j, 0.3 + 0j)

    def test_json_round_trip(self):
        p = sample_degenerate(2, 2, seed=9)
        q = ParameterSet.from_json(p.to_json())
        assert q == p


class TestSampling:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_generic_margin_and_constraint(self, n):
        p = sample_generic(n, seed=7)
        assert abs(sum(p.alpha) - 1.0) < 1e-12
        assert genericity_margin(p) >= 0.05

    def test_determinism(self):
        assert sample_generic(3, seed=3) == sample_generic(3, seed=3)
        assert sample_degenerate(2, 1, seed=4) == sample_degenerate(2, 1, seed=4)

    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 5), (3, 17), (5, 2)])
    def test_generic_is_level_zero(self, n, seed):
        assert sample_generic(n, seed) == sample_degenerate(n, 0, seed)

    def test_unreasonable_margin_fails(self, monkeypatch):
        monkeypatch.setattr(params, "_SAMPLE_ATTEMPTS", 50)
        with pytest.raises(SamplingError):
            sample_generic(2, seed=1, margin=0.49)

    def test_rank_8_at_default_margin(self):
        # the rejection loop fails here; the constructive draw meets the margin
        p = sample_generic(8, seed=0)
        assert abs(sum(p.alpha) - 1.0) < 1e-12
        assert genericity_margin(p) >= 0.05

    PINNED_SETS = [
        ((8, 0, 0, 0.05),
         [0.05367142226862293, 0.07700363286328296, 0.0410599070297639, 0.06289151109407322,
          0.03616417199750578, 0.07441121670561714, 0.05789104664323412, 0.05776090001540961,
          0.03321635432290884, 0.06840908678936108, 0.049028608332253684, 0.07438090710310588,
          0.038776310970417255, 0.056531212674887074, 0.04534601822537584, 0.061184474465058564,
          0.05451503511958403, 0.0577581833795379], 0.3636613845728893),
        ((3, 2, 5, 0.05),
         [0.0, 0.5623961276052564, 0.0, 0.5659215667945928, 0.21478329236137064,
          -0.060645724783429854, -0.33889053803121205, 0.05643527605342211], -0.13729019187000202),
        ((2, 0, 7, 0.02),
         [0.177396850968764, 0.5039388522066544, 0.35810511933739575, -0.30246908096812614,
          -0.21251816706336585, 0.4755464255186778], -0.7421020431516379),
    ]

    @pytest.mark.parametrize("args,alpha,eta", PINNED_SETS)
    def test_pinned_sets(self, args, alpha, eta):
        # the margin test stops at the first failing window; the sets it accepts stay these
        n, r, seed, margin = args
        assert sample_degenerate(n, r, seed, margin) == make_set(alpha, eta, r)

    @staticmethod
    def feasible_margin(n, r):
        # largest margin with (n+1) margin + (n+1-r) margin/2 <= 1
        return 1.0 / ((n + 1) + (n + 1 - r) / 2)

    @pytest.mark.parametrize("n,r", [(n, r) for n in (1, 2, 3, 5) for r in range(n + 2)])
    def test_constructive_draw_meets_feasible_margin(self, n, r, monkeypatch):
        monkeypatch.setattr(params, "_SAMPLE_ATTEMPTS", 1)
        margin = 0.95 * self.feasible_margin(n, r)
        p = sample_degenerate(n, r, seed=3, margin=margin)
        assert p.degeneracy == r and all(p.alpha[2 * i] == 0 for i in range(r))
        assert abs(sum(p.alpha) - 1.0) < 1e-12
        assert genericity_margin(p) >= margin

    @pytest.mark.parametrize("n,r", [(1, 0), (2, 1), (3, 4)])
    def test_infeasible_margin_still_fails(self, n, r, monkeypatch):
        monkeypatch.setattr(params, "_SAMPLE_ATTEMPTS", 1)
        with pytest.raises(SamplingError):
            sample_degenerate(n, r, seed=3, margin=1.05 * self.feasible_margin(n, r))

    @pytest.mark.parametrize("n,r", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)])
    def test_degenerate_sets(self, n, r):
        p = sample_degenerate(n, r, seed=13)
        assert p.degeneracy == r
        for i in range(r):
            assert p.alpha[2 * i] == 0
        assert abs(sum(p.alpha) - 1.0) < 1e-12
        assert genericity_margin(p) >= 0.05

    def test_rational_sampler_is_exact(self):
        p = sample_rational_generic(2, seed=21)
        assert sum(p.alpha) == 1
        m = 2 * p.n + 2
        for start in range(m):
            for card in range(2, m, 2):
                assert p.partial_sum(start, card - 1).denominator != 1


class TestDegenerateReplace:
    def test_substitution_values(self):
        p = make_set([0.0, 0.3, 0.3, 0.4])
        q = degenerate_replace(p, 0.01)
        assert q.alpha[0] == -100
        assert abs(q.alpha[1] - 100.3) < 1e-9
        assert q.alpha[2:] == p.alpha[2:]

    def test_sum_invariance_on_chain_input(self):
        p = sample_degenerate(2, 2, seed=8).with_degeneracy(1)
        q = degenerate_replace(p, 1e-3)
        assert abs(sum(q.alpha) - sum(p.alpha)) < 1e-9
        assert q.alpha[2] == -1000
        assert abs(q.alpha[3] - (p.alpha[3] + 1000)) < 1e-9

    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-8])
    @pytest.mark.parametrize("n,r,seed", [(1, 1, 0), (2, 2, 1), (3, 1, 2), (3, 3, 4)])
    def test_small_eps(self, n, r, seed, eps):
        # the inserted entries of size 1/eps round sum(alpha) at that scale,
        # far above an absolute 1e-12
        p = sample_degenerate(n, r, seed=seed).with_degeneracy(r - 1)
        q = degenerate_replace(p, eps)
        assert q.alpha[2 * r - 2] == -1 / eps
        assert abs(sum(q.alpha) - 1) <= 1e-12 / eps

    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError):
            degenerate_replace(P1, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fraction_set_stays_exact_at_every_level(self, n):
        eps = Fraction(1, 10**6)
        for r in range(1, n + 2):
            alpha = list(sample_rational_generic(n, seed=n + r).alpha)
            alpha[0:2 * r:2] = [Fraction(0)] * r
            alpha[-1] += 1 - sum(alpha)
            p = ParameterSet(n, tuple(alpha), Fraction(1, 3), r).with_degeneracy(r - 1)
            q = degenerate_replace(p, eps)
            assert all(type(a) is Fraction for a in q.alpha) and sum(q.alpha) == 1
            assert q.alpha[2 * r - 2] == -10**6
            assert q.alpha[2 * r - 1] == p.alpha[2 * r - 1] + 10**6
            assert q.degeneracy == r - 1 and q.eta == p.eta

    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-3 + 2e-3j, -1e-3])
    def test_complex_set_values_are_the_complex_substitution(self, eps):
        # the substitution in complex arithmetic, as written before the set's arithmetic was kept
        for n, r in [(1, 1), (2, 2), (3, 1), (3, 4)]:
            p = sample_degenerate(n, r, seed=n + r).with_degeneracy(r - 1)
            q = degenerate_replace(p, eps)
            want = list(p.alpha)
            want[2 * r - 2] = -1.0 / complex(eps)
            want[2 * r - 1] = complex(p.alpha[2 * r - 1]) + 1.0 / complex(eps)
            assert list(q.alpha) == want
