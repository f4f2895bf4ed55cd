from fractions import Fraction

import numpy as np
import pytest

from cpvi.dynamics import (
    _DP_C,
    _DP_TABLEAU,
    APPENDIX_SOURCE,
    APPENDIX_SYSTEMS,
    IntegrationError,
    appendix_a_field,
    appendix_a_map,
    appendix_rhs,
    canonical_to_symmetric,
    coupled_p6_field,
    cp6_rhs,
    degenerate_field,
    degenerate_rhs,
    hamiltonian_appendix,
    hamiltonian_cp6,
    hamiltonian_level,
    integrate,
    linear_rhs,
    log_derivative_target,
    pushforward_field,
    riccati_from_gauss,
    state_partials,
    symmetric_field,
    symmetric_rhs,
    symmetric_to_canonical,
)
from cpvi.linear import (
    _residue_matrices,
    build_confluent,
    build_dual,
    build_fuchsian,
    fundamental_solution,
)
from cpvi.params import (
    ParameterSet,
    degenerate_replace,
    sample_degenerate,
    sample_generic,
    sample_rational_generic,
)


def stencil_grad(f, vec):
    """Gradient of f at vec by the unit-step five-point stencil.

    (8 (f(v+1) - f(v-1)) - (f(v+2) - f(v-2))) / 12 has no truncation error
    where f has degree at most 4 in each entry.  The coupled Hamiltonian has
    degree 3 in each q_i and every other Hamiltonian here degree 2, so the
    result is their exact gradient up to rounding, and exactly their gradient
    on Fraction entries.  Returns a list.
    """
    def shifted(i, s):
        v = list(vec)
        v[i] += s
        return f(v)

    return [(8 * (shifted(i, 1) - shifted(i, -1)) - (shifted(i, 2) - shifted(i, -2))) / 12
            for i in range(len(vec))]


def constrained_state(p, rng, spread=1.2):
    """Random symmetric state on the constraint manifold of p."""
    n = p.n
    x = (rng.uniform(0.5, 1.5, n + 1) * rng.choice([-1.0, 1.0], n + 1)).astype(complex)
    y = rng.uniform(-spread, spread, n + 1).astype(complex)
    y[0] = -(complex(p.eta) + np.sum(x[1:] * y[1:])) / x[0]
    return x, y


def kernel_set(n, seed):
    """A generic set for the kernel tests.

    Rank 8 uses margin 0.02: at the default 0.05 the sampler spends its
    whole rejection budget first, and the kernels do not need the margin.
    """
    return sample_generic(n, seed=seed, margin=0.02 if n == 8 else 0.05)


RANKS = [1, 2, 3, 4, 8]
LEVELS = [(n, r) for n in (1, 2, 3, 4) for r in range(1, n + 2)]
CONFLUENCE_STEPS = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (3, 4)]


def rel_err(got, want):
    want = np.asarray(want)
    return float(np.linalg.norm(np.asarray(got) - want) / max(1.0, np.linalg.norm(want)))


def field_gradients(field, a, b, s):
    """(dH/da, dH/db) read off a Hamiltonian field (da/dt, db/dt) = (dH/db, -dH/da) / s."""
    da, db = field(a, b)
    return -db * s, da * s


class TestGradientOracles:
    """Each field's gradient against its Hamiltonian, with time factor s = t(t-1)
    for the coupled system, 1 for the symmetric one and t for the confluent
    and canonical ones (whose Hamiltonians are given as t H)."""

    @pytest.mark.parametrize("n", RANKS)
    def test_coupled(self, n):
        p = kernel_set(n, seed=n)
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            q = rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-1.5, 1.5, n)
            pm = rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-1.5, 1.5, n)
            t = rng.uniform(0.15, 0.85)
            dq, dp = field_gradients(lambda a, b: coupled_p6_field(p, a, b, t), q, pm, t * (t - 1))
            assert rel_err(dq, stencil_grad(lambda v: hamiltonian_cp6(p, v, pm, t), q)) < 1e-12
            assert rel_err(dp, stencil_grad(lambda v: hamiltonian_cp6(p, q, v, t), pm)) < 1e-12

    @pytest.mark.parametrize("n,r", [(n, 0) for n in RANKS] + LEVELS)
    def test_degenerate(self, n, r):
        """Every confluence level r = 0..n+1 against :func:`hamiltonian_level`;
        level 0 is the symmetric form."""
        p = kernel_set(n, seed=10 + n) if r == 0 else sample_degenerate(n, r, seed=20 + n + r)
        rng = np.random.default_rng(300 + 10 * n + r)
        for i in range(10):
            x = rng.uniform(0.4, 1.5, n + 1).astype(complex)
            y = rng.uniform(-1.2, 1.2, n + 1).astype(complex)
            if r == 0:
                t = rng.uniform(0.15, 0.85)
            else:
                t = rng.uniform(0.3, 1.8) if i < 9 else 1.0     # t = 1 is regular at r >= 1
            dtx, dty = field_gradients(lambda a, b: degenerate_field(p, a, b, t), x, y, t)
            assert rel_err(dtx, stencil_grad(lambda v: t * hamiltonian_level(p, v, y, t), x)) < 1e-12
            assert rel_err(dty, stencil_grad(lambda v: t * hamiltonian_level(p, x, v, t), y)) < 1e-12

    @pytest.mark.parametrize("which", APPENDIX_SYSTEMS)
    def test_appendix(self, which):
        n, r, _ = APPENDIX_SOURCE[which]
        p = sample_degenerate(n, r, seed=33)
        rng = np.random.default_rng(sum(map(ord, which)))
        for _ in range(10):
            q = rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-1.5, 1.5, n)
            pm = rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-1.5, 1.5, n)
            t = rng.uniform(0.3, 1.8)
            dq, dp = field_gradients(lambda a, b: appendix_a_field(which, p, a, b, t), q, pm, t)
            assert rel_err(dq, stencil_grad(lambda v: hamiltonian_appendix(which, p, v, pm, t), q)) < 1e-12
            assert rel_err(dp, stencil_grad(lambda v: hamiltonian_appendix(which, p, q, v, t), pm)) < 1e-12


def rational(rng):
    """A nonzero random rational with a small denominator."""
    return Fraction(int(rng.choice([-1, 1]) * rng.integers(1, 61)), int(rng.integers(1, 30)))


def rational_set(n, r, rng):
    """A level-r set with Fraction entries and a random rational eta:
    ``sample_rational_generic`` with the slots 2i < 2r zeroed and the last
    odd slot renormalised."""
    alpha = list(sample_rational_generic(n, seed=int(rng.integers(1000))).alpha)
    alpha[0:2 * r:2] = [Fraction(0)] * r
    alpha[-1] += 1 - sum(alpha)
    return ParameterSet(n, tuple(alpha), rational(rng), r)


def rational_points(n, r, seed, count=3):
    """(p, x, y, t) at random rational points, t = k/101 in (0, 1)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = rational_set(n, r, rng)
        x = [rational(rng) for _ in range(n + 1)]
        y = [rational(rng) for _ in range(n + 1)]
        yield p, x, y, Fraction(int(rng.integers(1, 101)), 101)


def exact_field(rhs, v, t):
    """A kernel rhs closure run on Fraction entries (an object array carries them through)."""
    return rhs(t, np.array(v, dtype=object)).tolist()


ALL_LEVELS = [(n, r) for n in (1, 2, 3, 4) for r in range(n + 2)]
# the five named canonical systems, then the other rank-n instances n<N>r<R> of both
# formulas (the rank-2 names are already n2r1, n2r2 and n2r3)
CANONICAL_NAMES = APPENDIX_SYSTEMS + tuple(name for name in (f"n{n}r{r}" for n, r in LEVELS)
                                           if name not in APPENDIX_SOURCE)


def canonical_source(which):
    """(rank, level, source time flipped) of a canonical system name; n<N>r<R> flips."""
    if which in APPENDIX_SOURCE:
        return APPENDIX_SOURCE[which]
    n, r = map(int, which[1:].split("r"))
    return n, r, True


class TestExactCertificates:
    """The shipped kernels on Fraction sets and states, held to their identities
    with ``==``.  Each identity is polynomial in the state, so its holding at random
    rational points is a proof except with probability at most degree/|sample set|
    (Schwartz-Zippel: J. T. Schwartz, J. ACM 27 (1980) 701-717)."""

    @pytest.mark.parametrize("n,r", ALL_LEVELS)
    def test_kernel_is_gradient_of_level_hamiltonian(self, n, r):
        # t * field = (d(tH)/dy, -d(tH)/dx); the stencil is exact at degree <= 4
        for p, x, y, t in rational_points(n, r, seed=400 + 10 * n + r):
            f = exact_field(degenerate_rhs(p), x + y, t)
            assert [t * v for v in f[:n + 1]] == stencil_grad(lambda b: t * hamiltonian_level(p, x, b, t), y)
            assert [-t * v for v in f[n + 1:]] == stencil_grad(lambda a: t * hamiltonian_level(p, a, y, t), x)

    @pytest.mark.parametrize("n", RANKS)
    def test_chart_identity(self, n):
        # t(t-1) times the coupled field is the canonical field of hamiltonian_cp6
        for p, x, y, t in rational_points(n, 0, seed=500 + n, count=1 if n == 8 else 3):
            q, pm, s = x[:n], y[:n], t * (t - 1)
            f = exact_field(cp6_rhs(p), q + pm, t)
            assert [s * v for v in f[:n]] == stencil_grad(lambda b: hamiltonian_cp6(p, q, b, t), pm)
            assert [-s * v for v in f[n:]] == stencil_grad(lambda a: hamiltonian_cp6(p, a, pm, t), q)

    @pytest.mark.parametrize("n,r", ALL_LEVELS)
    def test_position_specialisation(self, n, r):
        # at y = 0 the field is the linear system (A0/t + A1/(1-t)) x, or A0/t + A1 at r >= 1
        for p, x, _, t in rational_points(n, r, seed=600 + 10 * n + r):
            A0, A1 = _residue_matrices(n, r, p.partial_sum)
            c1 = 1 if r else 1 / (1 - t)
            want = [sum((a0 / t + a1 * c1) * xj for a0, a1, xj in zip(row0, row1, x))
                    for row0, row1 in zip(A0, A1)]
            f = exact_field(degenerate_rhs(p), x + [Fraction(0)] * (n + 1), t)
            assert f[:n + 1] == want
            assert f[n + 1:] == [0] * (n + 1)

    @pytest.mark.parametrize("n,r", ALL_LEVELS)
    def test_constraint_is_conserved(self, n, r):
        for p, x, y, t in rational_points(n, r, seed=700 + 10 * n + r):
            f = exact_field(degenerate_rhs(p), x + y, t)
            assert sum(xi * fy + yi * fx for xi, yi, fx, fy in zip(x, y, f, f[n + 1:])) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_log_derivative_identity(self, n):
        # on the constraint, t(1-t) d/dt log x_n = log_derivative_target in chart n
        for p, x, y, t in rational_points(n, 0, seed=800 + n):
            p = p.with_eta(-sum(xi * yi for xi, yi in zip(x, y)))
            f = exact_field(symmetric_rhs(p), x + y, t)
            q = [t * xi / x[n] for xi in x[:n]]
            pm = [x[n] * yi / t for yi in y[:n]]
            assert t * (1 - t) * f[n] / x[n] == log_derivative_target(p, q, pm, p.eta, t)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chart_carries_the_symmetric_field_to_the_coupled_field(self, n):
        # the push-forward of the level-0 field through chart n, plus the chart's
        # explicit d/dt (q/t, -p/t), is the coupled field at the image
        for p, x, y, t in rational_points(n, 0, seed=900 + n):
            p = p.with_eta(-sum(xi * yi for xi, yi in zip(x, y)))
            q, pm, _ = symmetric_to_canonical(p, x, y, t)
            push = pushforward_field(lambda a, b: symmetric_to_canonical(p, a, b, t)[:2],
                                     lambda a, b, s: symmetric_field(p, a, b, s), x, y, t)
            push = push + np.concatenate((q / t, -pm / t))
            assert list(push) == exact_field(cp6_rhs(p), list(q) + list(pm), t)
            assert all(type(v) is Fraction for v in push)

    @pytest.mark.parametrize("which", CANONICAL_NAMES)
    def test_appendix_chart_carries_the_level_field(self, which):
        # on the constraint, the push-forward of the level-r field through the
        # canonical chart (source time flipped where the system says so) is its field
        n, r, flip = canonical_source(which)
        for p, x, y, t in rational_points(n, r, seed=sum(map(ord, which))):
            y[0] = -(p.eta + sum(xi * yi for xi, yi in zip(x[1:], y[1:]))) / x[0]
            push = pushforward_field(lambda a, b: appendix_a_map(which, p, a, b),
                                     lambda a, b, s: degenerate_field(p, a, b, s), x, y, t, flip=flip)
            q, pm = appendix_a_map(which, p, x, y)
            assert list(push) == list(np.concatenate(appendix_a_field(which, p, q, pm, t)))
            assert all(type(v) is Fraction for v in push)

    def test_maps_and_fields_keep_fraction_inputs(self):
        """Every chart, canonical Hamiltonian and public field returns Fractions on
        Fraction inputs, so a cast to complex fails here by name."""
        def check(name, *parts):
            values = [v for part in parts for v in np.ravel(np.asarray(part, dtype=object))]
            assert all(type(v) is Fraction for v in values), name

        for which in APPENDIX_SYSTEMS:
            n, r, _ = APPENDIX_SOURCE[which]
            for p, x, y, t in rational_points(n, r, seed=1000 + len(which), count=1):
                check(f"hamiltonian_appendix {which}", hamiltonian_appendix(which, p, x[:n], y[:n], t))
                check(f"appendix_a_map {which}", *appendix_a_map(which, p, x, y))
        for n in (1, 2, 3):
            for p, x, y, t in rational_points(n, 0, seed=1010 + n, count=1):
                q, pm, eta = symmetric_to_canonical(p, x, y, t)
                check("symmetric_to_canonical", q, pm, eta)
                x2, y2 = canonical_to_symmetric(p, q, pm, eta, x[-1], t)
                check("canonical_to_symmetric", x2, y2)
                assert list(x2) == x and list(y2) == y
                check("symmetric_field", *symmetric_field(p, x, y, t))
                check("coupled_p6_field", *coupled_p6_field(p, q, pm, t))
            for p, x, y, t in rational_points(n, n, seed=1020 + n, count=1):
                check("degenerate_field", *degenerate_field(p, x, y, t))


def hand_hamiltonian(which, p, q, pm, t):
    """t H of the five named systems, written out term by term: the reference the
    rank-n formulas of :func:`hamiltonian_appendix` are held to."""
    e, a = p.eta, p.alpha
    if which == "p5":
        (q1,), (p1,) = q, pm
        return (q1 * (q1 - 1) * p1 * (p1 + t) - q1 * p1 * (e + a[2] - a[3])
                + (e - a[3]) * p1 + t * a[3] * q1)
    if which == "p3":
        (q1,), (p1,) = q, pm
        return q1 * q1 * p1 * (p1 - 1) + (e + a[3]) * q1 * p1 + t * p1 - e * q1
    (q1, q2), (p1, p2) = q, pm
    if which == "n2r1":
        return (q1 * (q1 - 1) * p1 * (p1 + t) - (e + a[2] - a[3] - a[5]) * q1 * p1
                + (e - a[3] - a[5]) * p1 + a[3] * t * q1
                + (q1 - 1) * p1 * q2 * p2 + (q1 - 1) * (q1 * p1 + a[3]) * p2
                + q2 * (q2 - 1) * p2 * (p2 + t) - (e + a[2] + a[4] - a[5]) * q2 * p2
                + (e - a[5]) * p2 + a[5] * t * q2)
    if which == "n2r2":
        return (q1 * q1 * p1 * (p1 - 1) + (e + a[3]) * q1 * p1 + t * p1 - a[3] * q1
                + q1 * p1 * q2 * p2 + p1 * q2 * (q2 * p2 + a[5])
                + q2 * q2 * p2 * (p2 - 1) + (e + a[3] + a[4] + a[5]) * q2 * p2
                + t * p2 - a[5] * q2)
    return (q1 * q1 * p1 * (p1 - 1) + (e + a[3]) * q1 * p1 - a[3] * q1
            + q1 * p1 * q2 * p2 + p1 * q2
            + q2 * q2 * p2 * p2 + (e + a[3] + a[5]) * q2 * p2 + t * p2 - q2)


def hand_chart(which, p, x, y):
    """The charts of the five named systems, written out: (q, p) as lists."""
    if which == "p5":
        return [x[0] / x[1]], [-x[1] * (x[1] * y[1] + p.alpha[3]) / x[0]]
    if which == "p3":
        return [x[1] / x[0]], [x[0] * y[1]]
    if which == "n2r1":
        return ([x[0] / x[1], x[0] / x[2]],
                [-x[1] * (x[1] * y[1] + p.alpha[3]) / x[0], -x[2] * (x[2] * y[2] + p.alpha[5]) / x[0]])
    return [-x[1] / x[0], -x[2] / x[0]], [1 - x[0] * y[1], -x[0] * y[2]]


class TestCanonicalFormulas:
    @pytest.mark.parametrize("which", APPENDIX_SYSTEMS)
    def test_named_systems_equal_their_hand_formulas(self, which):
        n, r, _ = APPENDIX_SOURCE[which]
        for p, x, y, t in rational_points(n, r, seed=1100 + sum(map(ord, which)), count=20):
            q, pm = x[:n], y[:n]
            assert hamiltonian_appendix(which, p, q, pm, t) == hand_hamiltonian(which, p, q, pm, t)
            assert tuple(map(list, appendix_a_map(which, p, x, y))) == hand_chart(which, p, x, y)

    def test_p5_is_the_rank_1_level_1_instance(self):
        # p3 keeps its own chart; p5 is n1r1 under another name (n2r1..n2r3 are their own)
        for p, x, y, t in rational_points(1, 1, seed=1200):
            q, pm = x[:1], y[:1]
            assert hamiltonian_appendix("p5", p, q, pm, t) == hamiltonian_appendix("n1r1", p, q, pm, t)
            assert ([list(v) for v in appendix_a_map("p5", p, x, y)]
                    == [list(v) for v in appendix_a_map("n1r1", p, x, y)])

    @pytest.mark.parametrize("which,n,r", [("p5", 2, 1), ("p3", 1, 1), ("n2r2", 2, 3), ("n3r2", 2, 2),
                                           ("n1r0", 1, 0), ("p6", 1, 1), ("n2r1x", 2, 1)])
    def test_names_must_match_the_set(self, which, n, r):
        p = sample_degenerate(n, r, seed=34)
        state = [0.5] * (n + 1)
        with pytest.raises(ValueError):
            hamiltonian_appendix(which, p, state[:n], state[:n], 0.5)
        with pytest.raises(ValueError):
            appendix_a_map(which, p, state, state)


class TestCoupledField:
    def test_momentum_free_reduction_matches(self):
        # at p = 0 the rank-1 field is the Riccati equation
        # t(t-1) q' = alpha_1 q^2 + ((alpha_3 + alpha_0) t - (alpha_0 + alpha_1)) q - alpha_3 t
        p = sample_generic(1, seed=7).with_eta(0.0)
        a0, a1, _, a3 = p.alpha
        for t in (0.2, 0.4, 0.7):
            for q in (-0.8, 0.3, 1.4):
                dq, dp = coupled_p6_field(p, [q], [0.0], t)
                riccati = a1 * q * q + ((a3 + a0) * t - (a0 + a1)) * q - a3 * t
                assert dq[0] == pytest.approx(riccati / (t * (t - 1)), rel=1e-13)
                assert dp[0] == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_momenta_stay_zero(self, n):
        p = sample_generic(n, seed=44 + n).with_eta(0.0)
        rng = np.random.default_rng(55 + n)
        for _ in range(20):
            q = rng.uniform(-2.0, 2.0, n).astype(complex)
            _, dp = coupled_p6_field(p, q, np.zeros(n, dtype=complex), rng.uniform(0.1, 0.9))
            assert np.max(np.abs(dp)) < 1e-13

    def test_singular_time_rejected(self):
        p = sample_generic(1, seed=3)
        for t in (0.0, 1.0):
            with pytest.raises(IntegrationError, match="coupled"):
                coupled_p6_field(p, [0.5], [0.5], t)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trajectory_is_symmetric_trajectory_in_the_chart(self, n):
        # the chart moves with t and x_n drifts along the symmetric flow,
        # which a pointwise comparison of the fields does not see
        p = sample_generic(n, seed=120 + n)
        x, y = constrained_state(p, np.random.default_rng(130 + n), spread=0.6)
        ts = np.linspace(0.3, 0.5, 11)
        sym = integrate(symmetric_rhs(p), np.concatenate((x, y)), 0.3, 0.5,
                        rtol=1e-11, atol=1e-13, dense_ts=ts)
        q, pm, _ = symmetric_to_canonical(p, x, y, 0.3)
        cp6 = integrate(cp6_rhs(p), np.concatenate((q, pm)), 0.3, 0.5,
                        rtol=1e-11, atol=1e-13, dense_ts=ts)
        for t, s, c in zip(ts, sym.states, cp6.states):
            want = np.concatenate(symmetric_to_canonical(p, s[:n + 1], s[n + 1:], t)[:2])
            assert rel_err(c, want) < 1e-8


class TestSymmetricField:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_position_specialisation_is_linear_system(self, n):
        p = sample_generic(n, seed=40 + n).with_eta(0.0)
        sys = build_fuchsian(p)
        rng = np.random.default_rng(60 + n)
        x = rng.uniform(0.5, 1.5, n + 1).astype(complex)
        y = np.zeros(n + 1, dtype=complex)
        for t in (0.2, 0.6):
            dx, dy = symmetric_field(p, x, y, t)
            assert np.max(np.abs(dx - sys.coefficient(t) @ x)) < 1e-13
            assert np.max(np.abs(dy)) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_momentum_specialisation_is_dual_system(self, n):
        p0 = sample_generic(n, seed=50 + n)
        p = p0.with_eta(complex(p0.alpha[2 * n + 1]))
        sysd = build_dual(p)
        rng = np.random.default_rng(70 + n)
        x = np.zeros(n + 1, dtype=complex)
        x[-1] = 1.3
        y = rng.uniform(-1.0, 1.0, n + 1).astype(complex)
        y[-1] = -complex(p.eta) / x[-1]
        for t in (0.25, 0.55):
            dx, dy = symmetric_field(p, x, y, t)
            assert np.max(np.abs(dy - sysd.coefficient(t) @ y)) < 1e-13
            assert np.max(np.abs(dx[:-1])) < 1e-13
            # the product x_n y_n is preserved, keeping the specialisation consistent
            assert abs(dx[-1] * y[-1] + x[-1] * dy[-1]) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_constraint_is_conserved(self, n):
        p = sample_generic(n, seed=61 + n)
        rng = np.random.default_rng(81 + n)
        for _ in range(10):
            x, y = constrained_state(p, rng)
            dx, dy = symmetric_field(p, x, y, rng.uniform(0.15, 0.85))
            assert abs(np.sum(dx * y + x * dy)) < 1e-12

    @pytest.mark.parametrize("n,r", [(1, 1), (2, 2), (3, 1)])
    def test_constraint_conserved_confluent(self, n, r):
        p = sample_degenerate(n, r, seed=71 + n)
        rng = np.random.default_rng(91 + n)
        for _ in range(10):
            x, y = constrained_state(p, rng)
            dx, dy = degenerate_field(p, x, y, rng.uniform(0.3, 1.8))
            assert abs(np.sum(dx * y + x * dy)) < 1e-12


class TestCoordinateMaps:
    def test_round_trip(self):
        p = sample_generic(2, seed=12)
        rng = np.random.default_rng(13)
        x, y = constrained_state(p, rng)
        t = 0.4
        q, pm, eta = symmetric_to_canonical(p, x, y, t)
        x2, y2 = canonical_to_symmetric(p, q, pm, eta, x[-1], t)
        assert np.max(np.abs(x2 - x)) < 1e-13
        assert np.max(np.abs(y2 - y)) < 1e-13

    def test_momentum_free_state_maps_to_zero_momenta(self):
        p = sample_generic(2, seed=14).with_eta(0.0)
        x = np.array([0.7, -1.2, 0.9], dtype=complex)
        q, pm, eta = symmetric_to_canonical(p, x, np.zeros(3, dtype=complex), 0.3)
        assert np.max(np.abs(pm)) == 0 and eta == 0

    def test_chart_breakdown_reported(self):
        p = sample_generic(1, seed=1)
        with pytest.raises(ZeroDivisionError):
            symmetric_to_canonical(p, [1.0, 0.0], [0.1, 0.2], 0.3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_coupled_field_is_symmetric_field_in_the_chart(self, n):
        p = sample_generic(n, seed=95 + n)
        rng = np.random.default_rng(96 + n)
        for _ in range(5):
            x, y = constrained_state(p, rng)
            t = rng.uniform(0.2, 0.8)
            q, pm, eta = symmetric_to_canonical(p, x, y, t)
            assert abs(eta - complex(p.eta)) < 1e-12
            push = pushforward_field(
                lambda xx, yy: symmetric_to_canonical(p, xx, yy, t)[:2],
                lambda xx, yy, tt: symmetric_field(p, xx, yy, tt), x, y, t)
            push = push + np.concatenate((q / t, -pm / t))     # the chart's explicit d/dt
            direct = np.concatenate(coupled_p6_field(p, q, pm, t))
            assert rel_err(push, direct) < 1e-12

    def test_log_derivative_identity_pointwise(self):
        p = sample_generic(2, seed=9)
        rng = np.random.default_rng(19)
        for _ in range(10):
            x, y = constrained_state(p, rng)
            t = rng.uniform(0.15, 0.85)
            fx, _ = symmetric_field(p, x, y, t)
            q, pm, eta = symmetric_to_canonical(p, x, y, t)
            lhs = t * (1 - t) * fx[-1] / x[-1]
            assert abs(lhs - log_derivative_target(p, q, pm, eta, t)) < 1e-12

    def test_log_derivative_identity_along_trajectory(self):
        p = sample_generic(1, seed=29)
        rng = np.random.default_rng(39)
        x, y = constrained_state(p, rng, spread=0.6)
        traj = integrate(symmetric_rhs(p), np.concatenate((x, y)), 0.3, 0.42,
                         rtol=1e-11, atol=1e-13, dense_ts=np.linspace(0.31, 0.41, 9))
        for t, state in zip(traj.ts, traj.states):
            # re-integrate tiny symmetric steps for the derivative of log x_n
            h = 1e-4
            ahead = integrate(symmetric_rhs(p), state, t, t + h, rtol=1e-12, atol=1e-14)
            behind = integrate(symmetric_rhs(p), state, t, t - h, rtol=1e-12, atol=1e-14)
            dlog = (np.log(ahead.final[1]) - np.log(behind.final[1])) / (2 * h)
            q, pm, eta = symmetric_to_canonical(p, state[:2], state[2:], t)
            target = log_derivative_target(p, q, pm, eta, t)
            assert abs(t * (1 - t) * dlog - target) < 1e-6


class TestConfluence:
    @staticmethod
    def field_error(p, r, eps, t, x, y):
        """g(eps) - f: the level-(r-1) source field at eps, rescaled to level-r
        coordinates, minus the level-r field f, as one flat vector."""
        src_params = degenerate_replace(p.with_degeneracy(r - 1), eps)
        x_old, y_old = x.copy(), y.copy()
        x_old[: r - 1] /= eps
        y_old[: r - 1] *= eps
        fx, fy = degenerate_field(src_params, x_old, y_old, eps * t)
        gx = eps * fx
        gx[: r - 1] *= eps
        gy = eps * fy
        gy[: r - 1] = fy[: r - 1]
        tx, ty = degenerate_field(p, x, y, t)
        return np.concatenate((gx - tx, gy - ty))

    @staticmethod
    def limit_case(n, r):
        p = sample_degenerate(n, r, seed=80 + 7 * n + r)
        return (p, *constrained_state(p, np.random.default_rng(85 + n + r)))

    @pytest.mark.parametrize("n,r", CONFLUENCE_STEPS)
    def test_field_limit_first_order(self, n, r):
        p, x, y = self.limit_case(n, r)
        e1 = np.linalg.norm(self.field_error(p, r, 1e-3, 0.7, x, y))
        e2 = np.linalg.norm(self.field_error(p, r, 1e-4, 0.7, x, y))
        assert 0.8 <= np.log10(e1 / e2) <= 1.2

    @pytest.mark.parametrize("n,r", CONFLUENCE_STEPS)
    def test_field_limit_richardson(self, n, r):
        # 2 g(eps/2) - g(eps) cancels the first-order term, leaving O(eps^2) and
        # the rounding of the 1/eps entries; at r = 1 the source is level 0, so
        # this holds the level-0 and level-1 ends of the one kernel together
        p, x, y = self.limit_case(n, r)
        eps = 1e-5
        defect = 2 * self.field_error(p, r, eps / 2, 0.7, x, y) - self.field_error(p, r, eps, 0.7, x, y)
        want = np.concatenate(degenerate_field(p, x, y, 0.7))
        assert np.linalg.norm(defect) <= 1e-9 * np.linalg.norm(want)

    @pytest.mark.parametrize("n,r", LEVELS)     # chain rows r < n and the all-chain level n+1
    def test_position_specialisation_confluent(self, n, r):
        p = sample_degenerate(n, r, seed=70 + n).with_eta(0.0)
        sys = build_confluent(p)
        rng = np.random.default_rng(75 + n)
        x = rng.uniform(0.5, 1.5, n + 1).astype(complex)
        y = np.zeros(n + 1, dtype=complex)
        dx, dy = degenerate_field(p, x, y, 0.9)
        assert np.max(np.abs(dx - sys.coefficient(0.9) @ x)) < 1e-13
        assert np.max(np.abs(dy)) < 1e-13


class TestStatePartials:
    def test_identity_map_returning_its_argument(self):
        # f hands back its own input, and the caller's arrays stay put
        x = np.array([0.8, -1.5, 2.0], dtype=complex)
        y = np.array([0.3, 1.1, -0.7], dtype=complex)
        x0, y0 = x.copy(), y.copy()
        Jx, Jy = state_partials(lambda a, b: a, x, y)
        assert np.array_equal(Jx, np.eye(3))
        assert np.array_equal(Jy, np.zeros((3, 3)))
        assert np.array_equal(x, x0) and np.array_equal(y, y0)

    def test_scalar_function(self):
        x = np.array([0.8, -1.5], dtype=complex)
        y = np.array([0.3, 1.1], dtype=complex)
        fx, fy = state_partials(lambda a, b: a[0] ** 2 * b[1] + a[1] / b[0], x, y)
        assert np.allclose(fx, [2 * x[0] * y[1], 1 / y[0]], rtol=1e-15, atol=0)
        assert np.allclose(fy, [-x[1] / y[0] ** 2, x[0] ** 2], rtol=1e-15, atol=0)

    def test_fraction_partials_are_exact(self):
        x = [Fraction(4, 5), Fraction(-3, 2)]
        y = [Fraction(3, 10), Fraction(11, 10)]
        fx, fy = state_partials(lambda a, b: a[0] ** 2 * b[1] + a[1] / b[0] - 2 / a[1], x, y)
        assert list(fx) == [2 * x[0] * y[1], 1 / y[0] + 2 / x[1] ** 2]
        assert list(fy) == [-x[1] / y[0] ** 2, x[0] ** 2]
        assert all(type(v) is Fraction for v in (*fx, *fy))


class TestAppendixMaps:
    @pytest.mark.parametrize("which", APPENDIX_SYSTEMS)
    def test_pushforward_matches_canonical_field(self, which):
        n, r, flip = APPENDIX_SOURCE[which]
        p = sample_degenerate(n, r, seed=90)
        rng = np.random.default_rng(sum(map(ord, which)))
        for _ in range(15):
            x, y = constrained_state(p, rng)
            s = rng.uniform(0.3, 1.5)
            q, pm = appendix_a_map(which, p, x, y)
            push = pushforward_field(
                lambda xx, yy: appendix_a_map(which, p, xx, yy),
                lambda xx, yy, tt: degenerate_field(p, xx, yy, tt),
                x, y, s, flip=flip)
            direct = np.concatenate(appendix_a_field(which, p, q, pm, s))
            assert rel_err(push, direct) < 1e-12

    def test_p5_value_with_vanishing_momentum(self):
        p = sample_degenerate(1, 1, seed=91)
        t = 0.7
        val = hamiltonian_appendix("p5", p, [2.0], [0.0], t)
        assert val == pytest.approx(2 * t * complex(p.alpha[3]), rel=1e-14)

    def test_n2r3_has_affine_momentum_term(self):
        p = sample_degenerate(2, 3, seed=92)
        t = 1.3
        dq, _ = appendix_a_field("n2r3", p, [0.0, 0.0], [0.0, 0.0], t)
        assert dq[1] == pytest.approx(1.0)  # the isolated t p_2 term gives t/t


def reduction_gap(p, q, dq, t):
    """Relative distance of dq from the momentum-free reduction, the coupled field at p = 0."""
    want, dp = coupled_p6_field(p, [q], [0], t)
    assert dp[0] == 0
    return abs(dq - want[0]) / max(1.0, abs(want[0]))


class TestClassicalChain:
    def test_gauss_solution_solves_reduction(self):
        p = sample_generic(1, seed=7).with_eta(0.0)
        for t in np.linspace(0.1, 0.5, 9):
            q, dq = riccati_from_gauss(p, t)
            assert reduction_gap(p, q, dq, t) < 1e-11

    def test_perturbed_solution_detected(self):
        p = sample_generic(1, seed=7).with_eta(0.0)
        q, dq = riccati_from_gauss(p, 0.3)
        assert reduction_gap(p, q + 0.01, dq, 0.3) >= 1e-3

    def test_degenerate_alpha3_zero_case(self):
        # with alpha_3 = 0 the series is constant 1 and q = 0 solves trivially
        p = ParameterSet(1, (0.3 + 0j, 0.45 + 0j, 0.25 + 0j, 0.0 + 0j), 0.0)
        q, dq = riccati_from_gauss(p, 0.3)
        assert abs(q) < 1e-14 and abs(dq) < 1e-14
        assert reduction_gap(p, q, dq, 0.3) < 1e-14

    def test_vanishing_alpha1_rejected(self):
        p = ParameterSet(1, (0.3 + 0j, 0.0 + 0j, 0.3 + 0j, 0.4 + 0j), 0.0)
        with pytest.raises(ZeroDivisionError):
            riccati_from_gauss(p, 0.3)


class TestIntegrator:
    def test_zero_field_constant(self):
        traj = integrate(lambda t, y: np.zeros_like(y), np.array([1.0, 2.0]), 0.1, 0.9)
        assert np.max(np.abs(traj.final - [1.0, 2.0])) == 0

    def test_linear_round_trip_matches_series(self):
        p = sample_generic(2, seed=5)
        sys = build_fuchsian(p)
        sol = fundamental_solution(p, 1, depth=60)
        traj = integrate(linear_rhs(sys), sol.value(0.1), 0.1, 0.4, rtol=1e-10, atol=1e-12)
        ref = sol.value(0.4)
        assert np.linalg.norm(traj.final - ref) / np.linalg.norm(ref) < 1e-7

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symmetric_round_trip(self, n):
        p = sample_generic(n, seed=104 + n).with_eta(0.0)
        sol = fundamental_solution(p, min(1, n), depth=60)
        state0 = np.concatenate((sol.value(0.1), np.zeros(n + 1)))
        traj = integrate(symmetric_rhs(p), state0, 0.1, 0.4, rtol=1e-10, atol=1e-12)
        ref = sol.value(0.4)
        assert np.linalg.norm(traj.final[: n + 1] - ref) / np.linalg.norm(ref) < 1e-7
        assert np.max(np.abs(traj.final[n + 1:])) < 1e-12

    @staticmethod
    def order_defects(b, order):
        """Defects sum(b * Phi(tree)) - 1/gamma(tree) of Butcher's rooted-tree
        order conditions of the given order (Hairer, Norsett & Wanner,
        Solving ODEs I, Sec. II.2), on the stage coefficients of _DP_TABLEAU;
        the nodes c stand for the row sums of A, as the next test checks."""
        A = _DP_TABLEAU[:7].real
        c = np.array(_DP_C)
        e = np.ones(7)
        trees = {
            1: [(e, 1)],
            2: [(c, 2)],
            3: [(c ** 2, 3), (A @ c, 6)],
            4: [(c ** 3, 4), (c * (A @ c), 8), (A @ c ** 2, 12), (A @ A @ c, 24)],
            5: [(c ** 4, 5), (c ** 2 * (A @ c), 10), (c * (A @ c ** 2), 15),
                (c * (A @ A @ c), 30), ((A @ c) ** 2, 20), (A @ c ** 3, 20),
                (A @ (c * (A @ c)), 40), (A @ A @ c ** 2, 60), (A @ A @ A @ c, 120)],
        }
        return [float(b @ phi) - 1 / gamma for phi, gamma in trees[order]]

    def test_tableau_order_conditions(self):
        # the pair is a fifth-order method (17 trees) with a fourth-order embedding (8 trees)
        b5 = _DP_TABLEAU[7].real
        b4 = b5 - _DP_TABLEAU[8].real
        defects5 = [d for order in range(1, 6) for d in self.order_defects(b5, order)]
        defects4 = [d for order in range(1, 5) for d in self.order_defects(b4, order)]
        assert len(defects5) == 17 and len(defects4) == 8
        assert max(map(abs, defects5)) <= 1e-15
        assert max(map(abs, defects4)) <= 1e-15
        # the embedded solution is no better than fourth order, so b5 - b4 estimates an error
        assert max(map(abs, self.order_defects(b4, 5))) > 1e-4

    def test_tableau_rows_sum_to_their_nodes(self):
        # consistency of the Dormand-Prince pair: stage rows sum to c_s, b5 to 1, b5 - b4 to 0
        for s in range(7):
            assert _DP_TABLEAU[s].sum() == pytest.approx(_DP_C[s], abs=1e-15)
            assert np.all(_DP_TABLEAU[s, s:] == 0)       # explicit: stage s uses earlier stages
        assert _DP_TABLEAU[7].sum() == pytest.approx(1.0, abs=1e-15)
        assert abs(_DP_TABLEAU[8].sum()) < 1e-15

    def test_tighter_rtol_reduces_error(self):
        p = sample_generic(2, seed=5)
        sys = build_fuchsian(p)
        sol = fundamental_solution(p, 1, depth=60)
        y0, ref = sol.value(0.1), sol.value(0.4)
        e = [np.linalg.norm(integrate(linear_rhs(sys), y0, 0.1, 0.4, rtol=rt, atol=1e-14).final - ref)
             for rt in (1e-6, 5e-7)]
        assert e[1] < e[0]

    def test_dense_output_accuracy(self):
        p = sample_generic(1, seed=6)
        sys = build_fuchsian(p)
        sol = fundamental_solution(p, 0, depth=60)
        ts = np.linspace(0.1, 0.4, 9)
        traj = integrate(linear_rhs(sys), sol.value(0.1), 0.1, 0.4,
                         rtol=1e-10, atol=1e-12, dense_ts=ts)
        for i, t in enumerate(ts):
            assert np.linalg.norm(traj.states[i] - sol.value(t)) < 1e-8

    @pytest.mark.parametrize("seed", [2, 9])
    def test_samples_cost_no_rejected_steps(self, seed):
        # a step shortened onto a sample must not drive the step-size control
        p = sample_generic(3, seed=5)
        x, y = constrained_state(p, np.random.default_rng(seed), spread=0.6)
        ts = np.linspace(0.3, 0.5, 11)
        sampled = integrate(symmetric_rhs(p), np.concatenate((x, y)), 0.3, 0.5, dense_ts=ts)
        free = integrate(symmetric_rhs(p), np.concatenate((x, y)), 0.3, 0.5)
        assert sampled.rejected <= 2
        assert sampled.steps <= free.steps + len(ts)

    @pytest.mark.parametrize("ts", [[0.2, 0.4], [0.4, 0.9], [0.3, 0.45, 0.4]])
    def test_samples_outside_the_span_rejected(self, ts):
        with pytest.raises(ValueError, match="dense_ts"):
            integrate(lambda t, y: y, np.array([1.0 + 0j]), 0.3, 0.5, dense_ts=ts)

    def test_samples_outside_a_zero_span_rejected(self):
        with pytest.raises(ValueError, match="dense_ts"):
            integrate(lambda t, y: y, np.array([1.0 + 0j]), 0.3, 0.3, dense_ts=[0.9])

    def test_one_sample_per_requested_time(self):
        y0 = np.array([1.0 + 0j, 2.0])
        grow = lambda t, y: y
        still = integrate(grow, y0, 0.3, 0.3, dense_ts=[0.3, 0.3, 0.3])
        assert np.array_equal(still.ts, [0.3] * 3) and np.array_equal(still.states, [y0] * 3)
        ts = [0.3, 0.3, 0.4, 0.5, 0.5]
        traj = integrate(grow, y0, 0.3, 0.5, dense_ts=ts)
        assert np.array_equal(traj.ts, ts)
        assert np.allclose(traj.states, [y0 * np.exp(t - 0.3) for t in ts], rtol=1e-9)
        # without dense_ts the one sample is t1
        final = integrate(grow, y0, 0.3, 0.5)
        assert np.array_equal(final.ts, [0.5]) and np.allclose(final.states, [y0 * np.exp(0.2)], rtol=1e-9)

    def test_stepping_ends_at_the_last_sample(self):
        calls = []

        def grow(t, y):
            calls.append(t)
            return y

        traj = integrate(grow, np.array([1.0 + 0j]), 0.3, 0.5, dense_ts=[0.3, 0.32])
        assert (traj.steps, len(calls)) == (3, 19)
        assert np.allclose(traj.states[:, 0], np.exp([0.0, 0.02]), rtol=1e-9)
        assert max(calls) <= 0.32

    def test_pole_after_the_last_sample_not_reached(self):
        traj = integrate(lambda t, y: y * y, np.array([1.0 + 0j]), 0.0, 2.0, dense_ts=[0.0, 0.5])
        assert traj.final[0] == pytest.approx(2.0, rel=1e-9)

    def test_movable_pole_reported_with_location(self):
        with pytest.raises(IntegrationError, match="t = "):
            integrate(lambda t, y: y * y, np.array([1.0 + 0j]), 0.0, 2.0)

    def test_non_finite_error_estimate_shrinks_the_step(self):
        # past |y| = 1e6 the stages turn NaN; the step must shrink onto the pole
        # at t = 1, not be retried at five times its length until the budget ends
        calls = []

        def square(t, y):
            calls.append(t)
            assert len(calls) <= 10_000, "NaN error estimate did not shrink the step"
            return y * y if abs(y[0]) < 1e6 else np.full_like(y, np.nan)

        with np.errstate(invalid="ignore"), pytest.raises(IntegrationError) as info:
            integrate(square, np.array([1.0 + 0j]), 0.0, 2.0)
        assert "budget" not in str(info.value)

    def test_constraint_drift_along_flow(self):
        p = sample_generic(2, seed=17)
        rng = np.random.default_rng(18)
        x, y = constrained_state(p, rng, spread=0.5)
        traj = integrate(symmetric_rhs(p), np.concatenate((x, y)), 0.3, 0.5,
                         rtol=1e-10, atol=1e-12, dense_ts=np.linspace(0.3, 0.5, 41))
        drift = [abs(np.sum(s[:3] * s[3:]) + complex(p.eta)) for s in traj.states]
        assert max(drift) < 1e-8


ADAPTER_CASES = ([("symmetric", n, 0) for n in RANKS]
                 + [("degenerate", n, r) for n, r in LEVELS]
                 + [("cp6", n, 0) for n in RANKS]
                 + [(which, *APPENDIX_SOURCE[which][:2]) for which in APPENDIX_SYSTEMS])


def adapter_case(kind, n, r):
    """(rhs closure, public field f(a, b, t), len(a), times where the field is singular)."""
    if kind == "symmetric":
        p = kernel_set(n, seed=60 + n)
        return symmetric_rhs(p), lambda a, b, t: symmetric_field(p, a, b, t), n + 1, (0.0, 1.0)
    if kind == "degenerate":
        p = sample_degenerate(n, r, seed=60 + n + r)
        return degenerate_rhs(p), lambda a, b, t: degenerate_field(p, a, b, t), n + 1, (0.0,)
    if kind == "cp6":
        p = kernel_set(n, seed=60 + n)
        return cp6_rhs(p), lambda a, b, t: coupled_p6_field(p, a, b, t), n, (0.0, 1.0)
    p = sample_degenerate(n, r, seed=66)
    return (appendix_rhs(kind, p), lambda a, b, t: appendix_a_field(kind, p, a, b, t), n,
            (0.0,))


class TestFlatAdapters:
    @pytest.mark.parametrize("kind,n,r", ADAPTER_CASES)
    def test_adapter_matches_public_field(self, kind, n, r):
        rhs, field, m, singular = adapter_case(kind, n, r)
        rng = np.random.default_rng(90 + 10 * n + r)
        for _ in range(5):
            v = rng.uniform(-1.5, 1.5, 2 * m) + 1j * rng.uniform(-0.5, 0.5, 2 * m)
            t = rng.uniform(0.15, 0.85)
            want = np.concatenate(field(v[:m], v[m:], t))
            assert np.linalg.norm(rhs(t, v) - want) <= 1e-14 * np.linalg.norm(want)
        for t in singular:
            with pytest.raises(IntegrationError):
                rhs(t, v)
        if 1.0 not in singular:                      # every confluent level is regular at t = 1
            assert np.all(np.isfinite(rhs(1.0, v)))

    def test_linear_adapter_matches_coefficient_matrix(self):
        sys = build_fuchsian(sample_generic(2, seed=61))
        rng = np.random.default_rng(91)
        v = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        want = sys.coefficient(0.4) @ v
        assert np.linalg.norm(linear_rhs(sys)(0.4, v) - want) <= 1e-14 * np.linalg.norm(want)

    def test_confluent_adapter_at_level_zero_is_symmetric(self):
        # a generic set is level 0 of the confluence chain: the same kernel, the same bytes
        p = sample_generic(2, seed=62)
        rng = np.random.default_rng(92)
        x = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        y = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        v = np.concatenate((x, y))
        assert degenerate_rhs(p)(0.5, v).tobytes() == symmetric_rhs(p)(0.5, v).tobytes()
        for got, want in zip(degenerate_field(p, x, y, 0.5), symmetric_field(p, x, y, 0.5)):
            assert got.tobytes() == want.tobytes()
