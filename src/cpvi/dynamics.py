"""Hamiltonian vector fields of the hierarchy and a generic integrator.

Three families of flows live here:

* the symmetric form in (x_0..x_n, y_0..y_n) constrained to
  sum(x_i y_i) + eta = 0, and its confluent levels, whose Hamiltonians
  carry a single 1/t pole: one Hamiltonian (:func:`hamiltonian_level`)
  and one kernel (:func:`_level_kernel`) for every level r = 0..n+1, the
  symmetric form being level 0;
* the rank-n coupled Painleve VI system in canonical variables
  (q_1..q_n, p_1..p_n), with time scaled by t(t-1): the level-0 kernel
  in chart n, q_i = t x_{i-1}/x_n, p_i = x_n y_{i-1}/t, eta = -sum(x_i y_i)
  (see :func:`cp6_rhs`);
* the canonical systems of the confluence chain: at every rank n, one
  formula and one chart for level 1 (a coupled fifth Painleve system) and
  one for all levels r >= 2, plus the rank-1 third Painleve system with
  its own chart (see :func:`hamiltonian_appendix`); each is written in
  its own time, and its chart takes the source field in flipped time.

A kernel is the field: a hand-written polynomial gradient of the
Hamiltonian, divided by the time factor, as a scalar loop.  It raises
IntegrationError at its own singular times, reads the flat state as one
list and returns the flat field as one list.  The states have length at
most 2n+2, and at that size numpy's fixed cost per array operation (about
a microsecond) would dominate a field call.  Kernels, Hamiltonians,
fields and chart maps are type-generic: they cast nothing and their only
literals are the ints 0, 1 and 2, so they compute in the arithmetic of
their inputs, Python complex numbers in production (real inputs give real
arrays) and ``Fraction``s in the exact certificates of the tests.  The rhs
closure of a family builds the kernel's parameter constants once; the
public field function builds that closure on every call and splits its
flat result.  The tests read each gradient off the field and hold it to
its Hamiltonian with a unit-step five-point stencil, which has no
truncation error at these degrees: in floats at 1e-12, and at random
rational points with ``==``.  Derivatives are exact: :func:`state_partials`
runs a state function once on dual numbers, so a map or state function
passed in must compute in its inputs' arithmetic (no ``complex()``, no
``dtype=complex``).

The integrator is an embedded Dormand-Prince 5(4) pair with complex
state support; its stage states, fifth-order solution and error estimate
are all read off one tableau.  Samples at requested times (by default t1
alone) are taken at step endpoints (steps are shortened to land on them),
and movable poles are diagnosed (steps collapse near a pole; the abort
reports the location estimate instead of attempting continuation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Number

import numpy as np

from .params import ParameterSet


class IntegrationError(RuntimeError):
    """Adaptive stepping failed (singular point or movable pole)."""


def _split_field(rhs, a, b, t):
    """A family's rhs at t on the state (a, b), split into its a and b halves."""
    f = rhs(t, np.concatenate((a, b)))
    return f[:len(a)], f[len(a):]


# ----------------------------------------------------------------------
# coupled Painleve VI in canonical variables


def hamiltonian_cp6(p: ParameterSet, q, pm, t):
    """Coupled Hamiltonian: one-site terms plus the pairwise coupling.

    Site i adds q(q-1)(q-t) p^2 - B + a eta q at (q, p, a) = (q_i, p_i, alpha_{2i-1}), where
    B = k0 (q-1)(q-t) p + k1 q(q-t) p + (kt-1) q(q-1) p = (K q^2 - (c0 + c1 t) q + k0 t) p,
    k0 = sum(odd alpha) - a - eta, k1 = alpha_0 + alpha_2 + ... + alpha_{2i-2}, kt = alpha_{2i}
    + alpha_{2i+2} + ... + alpha_{2n}, K = k0 + k1 + kt - 1, c0 = k0 + kt - 1, c1 = k0 + k1.
    Each pair i < j adds (q_i - 1)(q_j - t)((q_i p_i + a_i) p_j + p_i (q_j p_j + a_j)).
    """
    q, pm, eta = list(q), list(pm), p.eta
    even, odd = p.alpha[0::2], p.alpha[1::2]
    total = 0
    for i, (qi, pi) in enumerate(zip(q, pm)):
        k0 = sum(odd) - odd[i] - eta
        k1 = sum(even[:i + 1])
        kt = sum(even[i + 1:])
        total += (qi * (qi - 1) * (qi - t) * pi * pi
                  - (k0 * (qi - 1) * (qi - t) + k1 * qi * (qi - t) + (kt - 1) * qi * (qi - 1)) * pi
                  + odd[i] * eta * qi)
    for i in range(p.n):
        for j in range(i + 1, p.n):
            total += (q[i] - 1) * (q[j] - t) * ((q[i] * pm[i] + odd[i]) * pm[j]
                                                + pm[i] * (q[j] * pm[j] + odd[j]))
    return total


def _chart_kernel(c, v, t):
    """The coupled field on the flat state v = (q, p): the level-0 kernel in chart n, by the
    chain rule of :func:`cp6_rhs`."""
    if t == 0 or t == 1:
        raise IntegrationError("the coupled system is singular at t in {0, 1}")
    weights, eta = c
    n = len(v) // 2
    q, pm = v[:n], v[n:]
    y_last = -(sum([qi * pi for qi, pi in zip(q, pm)]) + eta) / t
    f = _level_kernel(weights, q + [t] + pm + [y_last], t)
    drift = (1 - f[n]) / t                    # each zip below stops before fx_n and fy_n
    return ([fx + qi * drift for qi, fx in zip(q, f)]
            + [fy - pi * drift for pi, fy in zip(pm, f[n + 1:])])


def coupled_p6_field(p: ParameterSet, q, pm, t):
    """(dq/dt, dp/dt): the canonical field divided by t(t-1), which is the symmetric
    field in chart n, q_i = t x_{i-1}/x_n, p_i = x_n y_{i-1}/t (see :func:`cp6_rhs`)."""
    return _split_field(cp6_rhs(p), q, pm, t)


# ----------------------------------------------------------------------
# symmetric form and its confluent levels


def _window_weights(p: ParameterSet):
    """Lists (big, odd) of the window sums alpha_{2i+2} + ... + alpha_{2n+1} and alpha_{2i+1}."""
    n = p.n
    big = [p.partial_sum(2 * i + 2, 2 * n - 2 * i - 1) for i in range(n + 1)]
    odd = [p.alpha[2 * i + 1] for i in range(n + 1)]
    return big, odd


def hamiltonian_level(p: ParameterSet, x, y, t):
    """H of the level-r system, r = p.degeneracy (the value of H, not t H).

    t H = sum x_i y_i (x_i y_i - 2 b_i)/2 + sum_{i<r-1} x_{i+1} y_i
          + sum_{i>=max(r-1,0)} y_i (t x_0 [r >= 1] + sum_{j>i} s_j) + [r = 0] t/(1-t) S Y,
    with b_i, alpha_{2i+1} from :func:`_window_weights`, s_j = x_j (x_j y_j + alpha_{2j+1}),
    S = sum s_j and Y = sum y_j.  This is the reference :func:`_level_kernel` is held to.
    """
    big, odd = _window_weights(p)
    r = p.degeneracy
    s = [xi * (xi * yi + oi) for xi, yi, oi in zip(x, y, odd)]
    th = sum(xi * yi * (xi * yi - 2 * bi) for xi, yi, bi in zip(x, y, big)) / 2
    th += sum(x[i + 1] * y[i] for i in range(r - 1))
    lead = t * x[0] if r else 0
    th += sum(y[i] * (lead + sum(s[i + 1:])) for i in range(max(r - 1, 0), len(x)))
    if not r:
        th += t / (1 - t) * sum(s) * sum(y)
    return th / t


def symmetric_field(p: ParameterSet, x, y, t):
    return _split_field(symmetric_rhs(p), x, y, t)


def _level_kernel(c, v, t):
    """The field (d(tH)/dy, -d(tH)/dx) / t of the level-r system on the flat state v = (x, y).

    One kernel serves every level r = 0..n+1; c = (big, odd, r).  At
    r >= 1 the chain sites i < r-1 couple only to their neighbours, through
    x_{i+1} y_i; the active sites i >= r-1 carry the symmetric-form terms
    and t x_0 y_i.  Level 0 is the symmetric form: every site is active,
    and with u = t/(1-t), S = sum(s_j) and Y = sum(y_j),
    t H = sum(x^2 y^2/2 - b x y) + sum(y_i stail_i) + u S Y, where
    stail_i = sum of s_j over j > i.  The u S Y term adds u Y to every
    running y-sum and u S to every tail, so the active-site loop is the
    same at every level, started at ya = u Y and tail = (1+u) S in place of
    ya = 0 and tail = t x_0 + S, and level 0 has no t x_0 y_i coupling.
    """
    big, odd, r = c
    if t == 0 or (t == 1 and not r):
        raise IntegrationError(f"the level-{r} system is singular at t = {t}")
    scale = 1 / t
    k = r - 1                                 # chain sites (none at levels 0 and 1)
    m = len(big)
    x, y = v[:m], v[m:]
    fx, fy = [], []
    ylink = 0                                 # y_{i-1} at the chain sites and at i = r-1
    for i in range(k):
        xi, yi, bi = x[i], y[i], big[i]
        fx.append((xi * (xi * yi - bi) + x[i + 1]) * scale)
        fy.append(((bi - xi * yi) * yi - ylink) * scale)
        ylink = yi
    if k > 0:                                 # slicing only here keeps levels 0 and 1 copy-free
        x, y, big, odd = x[k:], y[k:], big[k:], odd[k:]
    s = [xi * (xi * yi + oi) for xi, yi, oi in zip(x, y, odd)]
    if r:
        tail = t * v[0] + sum(s)              # t x_0 + sum of s_j over j > i after the update
        ya = 0                                # sum of y_j over the active sites j < i
    else:
        u = t / (1 - t)
        tail = (1 + u) * sum(s)
        ya = u * sum(y)
    for xi, yi, si, bi, oi in zip(x, y, s, big, odd):
        xy = xi * yi
        tail -= si
        fx.append((xi * xi * (yi + ya) - bi * xi + tail) * scale)
        fy.append(((bi - xy) * yi - (xy + xy + oi) * ya - ylink) * scale)
        ylink = 0
        ya += yi
    if r:
        fy[0] -= t * ya * scale               # x_0 enters every t x_0 y_i
    return fx + fy


def degenerate_field(p: ParameterSet, x, y, t):
    return _split_field(degenerate_rhs(p), x, y, t)


def constraint_value(x, y, eta):
    return complex(np.sum(np.asarray(x) * np.asarray(y)) + eta)


# ----------------------------------------------------------------------
# coordinate maps


def symmetric_to_canonical(p: ParameterSet, x, y, t):
    """(q, p, eta) from a symmetric state; needs x_n != 0 and t != 0."""
    x, y = np.asarray(x), np.asarray(y)
    if x[-1] == 0:
        raise ZeroDivisionError("coordinate chart breaks down at x_n = 0")
    if t == 0:
        raise ZeroDivisionError("coordinate chart undefined at t = 0")
    return t * x[:-1] / x[-1], x[-1] * y[:-1] / t, -np.sum(x * y)


def canonical_to_symmetric(p: ParameterSet, q, pm, eta, x_last, t):
    """Inverse chart; the free scale x_n is supplied by the caller."""
    q, pm = np.asarray(q), np.asarray(pm)
    if x_last == 0 or t == 0:
        raise ZeroDivisionError("need x_n != 0 and t != 0")
    return (np.append(x_last * q / t, x_last),
            np.append(t * pm / x_last, -(np.sum(q * pm) + eta) / x_last))


def log_derivative_target(p: ParameterSet, q, pm, eta, t):
    """The combination t(1-t) d/dt log x_n equals along symmetric flows."""
    return (sum((qi - 1) * (qi - t) * pi + oi * qi for qi, pi, oi in zip(q, pm, p.alpha[1::2]))
            + t * p.alpha[2 * p.n + 1] - (t + 1) * eta)


# ----------------------------------------------------------------------
# canonical systems of the confluence chain (levels >= 1, every rank)

# the five named systems: (rank, confluence level, source time flipped)
APPENDIX_SOURCE = {
    "p5": (1, 1, True),
    "p3": (1, 2, False),
    "n2r1": (2, 1, True),
    "n2r2": (2, 2, True),
    "n2r3": (2, 3, True),
}
APPENDIX_SYSTEMS = tuple(APPENDIX_SOURCE)


def _canonical_level(which: str, p: ParameterSet) -> int:
    """p's level r >= 1, once ``which`` names it: an APPENDIX_SOURCE key or n<p.n>r<r>."""
    n, r = p.n, p.degeneracy
    if not r or APPENDIX_SOURCE.get(which, (0, 0))[:2] != (n, r) and which != f"n{n}r{r}":
        raise ValueError(f"{which!r} names no canonical system of rank {n} at level {r}")
    return r


def hamiltonian_appendix(which: str, p: ParameterSet, q, pm, t):
    """t H of the canonical system ``which`` at level r = p.degeneracy; i, j = 1..n.

    P_III (``p3``): t H = q^2 p (p - 1) + (eta + alpha_3) q p + t p - eta q.
    Level 1, a coupled P_V: t H = sum_i [q_i (q_i - 1) p_i (p_i + t) - (eta + alpha_2 + ...
    + alpha_{2i} - L_i) q_i p_i + (eta - L_i) p_i + alpha_{2i+1} t q_i]
    + sum_{i<j} (q_i - 1) p_j (p_i (q_i + q_j) + alpha_{2i+1}), L_i = alpha_{2i+1} + alpha_{2i+3}
    + ... + alpha_{2n+1}.  Levels r >= 2: with P = (p_1 - 1, p_2, ..., p_n), u_i = q_i P_i,
    U = sum u_i, s_j = q_j (u_j + alpha_{2j+1}) and b_i the window sums of :func:`_window_weights`,
    t H = (U^2 + sum u_i^2)/2 + (eta + 1 - alpha_1 + q_1) U - sum b_i u_i + eta q_1
          + sum_{i<r-1} q_{i+1} P_i + sum_{i>=r-1} (t p_i + P_i sum_{j>i} s_j).
    """
    r = _canonical_level(which, p)
    e, (big, odd) = p.eta, _window_weights(p)
    if which == "p3":
        (q1,), (p1,) = q, pm
        return q1 * q1 * p1 * (p1 - 1) + (e + odd[1]) * q1 * p1 + t * p1 - e * q1
    if r == 1:
        th, k = 0, e                                  # k = eta + alpha_2 + ... + alpha_{2i}
        for i, (qi, pi, oi) in enumerate(zip(q, pm, odd[1:])):
            k, low = k + p.alpha[2 * i + 2], sum(odd[i + 1:])      # low = L_i
            th += (qi * (qi - 1) * pi * (pi + t) - (k - low) * qi * pi + (e - low) * pi
                   + oi * t * qi + sum((qi - 1) * pj * (pi * (qi + qj) + oi)
                                       for qj, pj in zip(q[i + 1:], pm[i + 1:])))
        return th
    P = [pm[0] - 1, *pm[1:]]
    u = [qi * Pi for qi, Pi in zip(q, P)]
    s = [qi * (ui + oi) for qi, ui, oi in zip(q, u, odd[1:])]
    U = sum(u)
    th = ((U * U + sum(ui * ui for ui in u)) / 2 + (e + 1 - odd[0] + q[0]) * U + e * q[0]
          - sum(bi * ui for bi, ui in zip(big[1:], u)) + sum(q[i + 1] * P[i] for i in range(r - 2)))
    return th + sum(t * pm[i] + P[i] * sum(s[i + 1:]) for i in range(r - 2, p.n))


def appendix_a_field(which: str, p: ParameterSet, q, pm, t):
    """(dq/dt, dp/dt) of the selected canonical system in its own time, from the
    exact gradient of :func:`hamiltonian_appendix` (see :func:`state_partials`)."""
    if t == 0:
        raise IntegrationError("canonical systems are singular at t = 0")
    dq, dp = state_partials(lambda a, b: hamiltonian_appendix(which, p, a, b, t), q, pm)
    return dp / t, -dq / t


def appendix_a_map(which: str, p: ParameterSet, x, y):
    """(q, p) of a level-r symmetric state for the system ``which``; i = 1..n.

    P_III (``p3``, source time as is): q = x_1/x_0, p = x_0 y_1.  The other charts take the
    level-r field in flipped source time.  Level 1: q_i = x_0/x_i, p_i = -x_i (x_i y_i
    + alpha_{2i+1})/x_0.  Levels r >= 2: q_i = -x_i/x_0, p_1 = 1 - x_0 y_1, p_i = -x_0 y_i.
    """
    r = _canonical_level(which, p)
    x0, xs, ys = x[0], x[1:], y[1:]
    if which == "p3":
        return np.array([xs[0] / x0]), np.array([x0 * ys[0]])
    if r == 1:
        return (np.array([x0 / xi for xi in xs]),
                np.array([-xi * (xi * yi + oi) / x0 for xi, yi, oi in zip(xs, ys, p.alpha[3::2])]))
    return (np.array([-xi / x0 for xi in xs]),
            np.array([1 - x0 * ys[0], *(-x0 * yi for yi in ys[1:])]))


class _Dual:
    """A value v and its derivative d, a scalar or a row of directions (forward mode:
    Griewank & Walther, *Evaluating Derivatives*, SIAM 2008, ch. 3).  An operand that
    is neither a dual nor a number gives NotImplemented, so numpy applies the
    operation entrywise; ``abs`` is that of the value, for the maps' magnitude tests,
    and so are ``real`` and ``imag``, for the branch-cut test of the cycle-closing
    generators (a dual t there carries the Euler term of t^alpha)."""

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v + o.v, self.d + o.d)
        return _Dual(self.v + o, self.d) if isinstance(o, Number) else NotImplemented

    def __sub__(self, o):
        return self + -o if isinstance(o, (_Dual, Number)) else NotImplemented

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v * o.v, self.v * o.d + o.v * self.d)
        return _Dual(self.v * o, self.d * o) if isinstance(o, Number) else NotImplemented

    def __truediv__(self, o):
        if isinstance(o, _Dual):
            q = self.v / o.v
            return _Dual(q, (self.d - q * o.d) / o.v)
        return _Dual(self.v / o, self.d / o) if isinstance(o, Number) else NotImplemented

    __radd__, __rmul__ = __add__, __mul__

    def __rsub__(self, o):
        return _Dual(o - self.v, -self.d)

    def __rtruediv__(self, o):
        return _Dual(o, 0) / self

    def __neg__(self):
        return _Dual(-self.v, -self.d)

    def __pow__(self, k: int):
        return _Dual(self.v ** k, k * self.v ** (k - 1) * self.d)

    def __abs__(self):
        return abs(self.v)

    @property
    def real(self):
        return self.v.real

    @property
    def imag(self):
        return self.v.imag


def state_partials(f, x, y):
    """Exact partials (df/dx_i, df/dy_i) of a state function, by one forward-mode pass.

    f runs once on object arrays of :class:`_Dual` entries seeded with the rows of an
    integer identity, every coordinate direction at once, so ``Fraction`` inputs give
    ``Fraction`` partials; f must compute in its inputs' arithmetic.  f(x, y) returns a
    scalar or an array; the partials are stacked along a new first axis, one per coordinate.
    """
    v = np.concatenate((x, y)).tolist()
    seeds = np.array([_Dual(a, d) for a, d in zip(v, np.eye(len(v), dtype=int))], dtype=object)
    out = f(seeds[:len(x)], seeds[len(x):])
    rows = [e.d if isinstance(e, _Dual) else np.zeros(len(v), dtype=int) for e in np.ravel(out)]
    jac = np.array(rows).T.reshape((len(v),) + np.shape(out))
    return jac[:len(x)], jac[len(x):]


def pushforward_field(map_fn, field, x, y, t, flip=False):
    """Time derivative of map_fn(x, y) along the flow of ``field``.

    The chain rule fx @ Jx + fy @ Jy takes the exact Jacobians of the map
    from :func:`state_partials`, so map_fn must compute in its inputs'
    arithmetic (no ``complex()``, no ``dtype=complex``).  ``flip`` accounts
    for a source flow running in reversed time: the source field is
    evaluated at -t and the whole derivative changes sign.
    """
    fx, fy = field(x, y, -t if flip else t)
    Jx, Jy = state_partials(lambda a, b: np.concatenate(map_fn(a, b)), x, y)
    out = fx @ Jx + fy @ Jy
    return -out if flip else out


# ----------------------------------------------------------------------
# rank-1 classical chain


def riccati_from_gauss(p: ParameterSet, t):
    """(q, dq/dt) built from the logarithmic derivative of the rank-1 hypergeometric
    solution; q then solves the momentum-free reduction, :func:`coupled_p6_field` at p = 0."""
    from .hyperfn import eval_series_jet
    from .linear import branch_spec

    if p.n != 1:
        raise ValueError("the classical chain is a rank-1 construction")
    a1, a3 = p.alpha[1], p.alpha[3]
    if a1 == 0:
        raise ZeroDivisionError("the logarithmic-derivative map needs alpha_1 != 0")
    _, spec = branch_spec(p, 1, 0)      # prefactor 1 at level 0
    (f, fp, fpp), _ = eval_series_jet(spec, t, order=2)
    if f == 0:
        raise ZeroDivisionError(f"hypergeometric factor vanishes at t = {t}")
    t = _Dual(t, 1)                     # dq/dt by forward mode, with (f, f') and (f', f'')
    q = t * (1 - t) / a1 * (a3 / (t - 1) + _Dual(fp, fpp) / _Dual(f, fp))
    return q.v, q.d


# ----------------------------------------------------------------------
# adaptive integration

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_B5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
_DP_B4 = [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
# rows 0..6: the stage coefficients a_{s,j} (row 6 equals b5, first same as
# last); row 7: b5; row 8: the error weights b5 - b4
_DP_TABLEAU = np.array([
    [0.0] * 7,
    [1 / 5] + [0.0] * 6,
    [3 / 40, 9 / 40] + [0.0] * 5,
    [44 / 45, -56 / 15, 32 / 9] + [0.0] * 4,
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729] + [0.0] * 3,
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656] + [0.0] * 2,
    _DP_B5,
    _DP_B5,
    [b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4)],
], dtype=complex)               # complex, so the stage products need no cast

_MAX_STATE = 1e10
_MAX_STEPS = 200_000        # attempted steps, accepted and rejected
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


@dataclass
class Trajectory:
    """Sampled solution with stepping statistics."""

    ts: np.ndarray
    states: np.ndarray
    steps: int
    rejected: int

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def integrate(field, state0, t0, t1, rtol=1e-10, atol=1e-12, dense_ts=None) -> Trajectory:
    """Embedded Dormand-Prince 5(4) integration of dstate/dt = field(t, state).

    Local error per step is held below atol + rtol * |state| componentwise.
    The trajectory holds one state per requested time: ``dense_ts``
    (monotone, inside [t0, t1]), by default t1 alone; stepping ends at the
    last of them, so nothing past it is computed.  A step that would
    pass the next sample time is shortened to end on it, and an accepted
    shortened step leaves the step-size proposal as it was, so the samples
    cost no rejected steps.  Every sample is then the state at a step
    endpoint, with the full step accuracy; a sample time within rounding
    of the current time takes the current state.
    """
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be positive")
    y = np.asarray(state0, dtype=complex).copy()
    t, t1 = float(t0), float(t1)      # times stay Python floats: numpy scalars slow the kernels
    direction = 1.0 if t1 >= t else -1.0
    span = abs(t1 - t)
    end_tol = 1e-14 * max(1.0, abs(t1))
    dense = np.array([t1] if dense_ts is None else dense_ts, dtype=float)
    ahead = (dense - t) * direction
    if np.any(np.diff(ahead) < 0) or np.any(abs(ahead - span / 2) > span / 2 + end_tol):
        raise ValueError("dense_ts must be monotone and inside [t0, t1]")
    t1 = float(dense[-1])
    span = abs(t1 - t)
    out_states = np.empty((len(dense), len(y)), dtype=complex)
    if span == 0:
        out_states[:] = y
        return Trajectory(dense, out_states, 0, 0)

    f = np.asarray(field(t, y), dtype=complex)
    scale = atol + rtol * np.abs(y)
    d0 = np.sqrt(np.mean(np.abs(y / scale) ** 2))
    d1 = np.sqrt(np.mean(np.abs(f / scale) ** 2))
    h = min(span / 10.0, 0.01 * d0 / d1 if d1 > 0 else span / 10.0)
    h = float(max(h, span * 1e-10))

    dense_idx = steps = rejected = 0
    m = len(y)
    K = np.empty((7, m), dtype=complex)
    K[0] = f
    ay = np.abs(y)
    while True:
        while dense_idx < len(dense) and (dense[dense_idx] - t) * direction <= end_tol:
            out_states[dense_idx] = y
            dense_idx += 1
        if (t1 - t) * direction <= end_tol:
            break
        if steps + rejected > _MAX_STEPS:
            raise IntegrationError(f"step budget exhausted near t = {t:.6g}")
        if ay.max() > _MAX_STATE:
            raise IntegrationError(f"state blow-up near t = {t:.6g} (movable pole?)")
        # the last sample is t1, so a sample is always ahead
        h_step = min(h, abs(float(dense[dense_idx]) - t))
        if h_step < 1e-13 * max(1.0, abs(t)):
            raise IntegrationError(
                f"step size underflow near t = {t:.6g} (movable pole or singular point)")
        ht = h_step * direction
        tab = _DP_TABLEAU * ht
        for s in range(1, 7):
            K[s] = field(t + _DP_C[s] * ht, y + np.dot(tab[s, :s], K[:s]))
        dy5, err_vec = np.dot(tab[7:], K)
        y5 = y + dy5
        ay5 = np.abs(y5)
        r = err_vec / (atol + rtol * np.maximum(ay, ay5))
        err = math.sqrt(np.vdot(r, r).real / m)
        accepted = err <= 1.0
        if accepted:
            t += ht
            y, ay = y5, ay5
            K[0] = K[6]      # first same as last: the stage equals field(t, y5)
            steps += 1
        else:
            rejected += 1
        # an accepted step shortened below h says nothing about h itself
        if not (accepted and h_step < h):
            if math.isfinite(err):
                factor = _SAFETY * err ** -0.2 if err > 0 else _MAX_FACTOR
            else:       # a stage overflowed: the estimate says only that h is too long
                factor = _MIN_FACTOR
            h = h_step * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))

    return Trajectory(dense, out_states, steps, rejected)


# rhs closures on the flat state -------------------------------------------


def _kernel_rhs(kernel, constants):
    """The flat rhs f(t, v) of a kernel, with its parameter constants bound."""

    def rhs(t, v):
        return np.array(kernel(constants, v.tolist(), t))

    return rhs


def symmetric_rhs(p: ParameterSet):
    return _kernel_rhs(_level_kernel, (*_window_weights(p), 0))


def degenerate_rhs(p: ParameterSet):
    """The flat field of the level-r system, r = p.degeneracy; level 0 is :func:`symmetric_rhs`."""
    return _kernel_rhs(_level_kernel, (*_window_weights(p), p.degeneracy))


def cp6_rhs(p: ParameterSet):
    """The flat coupled field: the level-0 (symmetric) kernel in chart n.

    The chart is q_i = t x_{i-1}/x_n, p_i = x_n y_{i-1}/t (i = 1..n), eta = -sum(x_i y_i).  The
    symmetric Hamiltonian is invariant under x -> lambda x, y -> y/lambda, so any x_n lifts (q, p);
    x_n = t gives x = (q, t), y = (p, -(sum q_i p_i + eta)/t).  With (fx, fy) the symmetric field
    there, dq_i/dt = fx_{i-1} + q_i (1 - fx_n)/t and dp_i/dt = fy_{i-1} - p_i (1 - fx_n)/t.
    """
    return _kernel_rhs(_chart_kernel, ((*_window_weights(p), 0), p.eta))


def appendix_rhs(which: str, p: ParameterSet):
    def rhs(t, v):
        return np.concatenate(appendix_a_field(which, p, v[:p.n], v[p.n:], t))

    return rhs


def linear_rhs(sys):
    def rhs(t, v):
        return sys.coefficient(t) @ v

    return rhs
