"""Birational symmetries of the symmetric Hamiltonian system.

The symmetry group is generated by 2n+2 involutions attached to the nodes
of a cyclic diagram: the Cartan matrix has 2 on the diagonal and -1
between cyclic neighbours.  Odd-node generators shift one position
coordinate by a residue of its conjugate momentum, even-node generators
shift two momenta by a residue of a position difference, and the two
generators closing the cycle (indices 0 and 2n+1) additionally rescale
the whole state by a power of t.  Every generator acts affinely on the
parameters via the Cartan matrix and shifts eta by its own alpha with an
alternating sign, which keeps the constraint sum(x_i y_i) + eta = 0
invariant.

Products of two distinct generators have order 3 on cyclic neighbours and
order 2 otherwise, so the group is the affine Weyl group of the cyclic
diagram; the relation suite in the tests checks exactly that on random
regular states.

The generators are scalar code in the arithmetic of their inputs (state
entries, alpha, eta and t), with no cast and no array per step: complex
in production, and exact on ``Fraction``s for the t-free generators
1..2n.  The cycle-closing generators take the principal branch of
t^alpha at complex t; real t <= 0 is the branch cut and raises
ValueError.
"""

from __future__ import annotations

import numpy as np

from .dynamics import state_partials
from .params import ParameterSet, sample_generic


class SingularTransformError(ZeroDivisionError):
    """A generator was applied where one of its denominators vanishes."""


_DENOM_TOL = 1e-12


def cartan_matrix(n: int) -> np.ndarray:
    """Cyclic Cartan matrix of size 2n+2 (rows sum to zero)."""
    m = 2 * n + 2
    a = 2 * np.eye(m, dtype=int)
    for i in range(m):
        a[i, (i + 1) % m] = -1
        a[i, (i - 1) % m] = -1
    return a


def poisson_bracket(f, g):
    """Canonical bracket evaluator for state functions f(x, y), g(x, y).

    The structure constants are {x_i, y_j} = -delta_ij, so
    {f, g} = sum_i df/dy_i dg/dx_i - df/dx_i dg/dy_i, with the exact partials
    of :func:`state_partials`; f and g must compute in their inputs' arithmetic.
    The bracket is a Python scalar in the arithmetic of the partials.
    """

    def bracket(x, y):
        fx, fy = state_partials(f, x, y)
        gx, gy = state_partials(g, x, y)
        return sum((fy * gx - fx * gy).tolist())

    return bracket


def coordinate(kind: str, idx: int):
    """Coordinate function x_idx or y_idx as a callable state function."""
    if kind == "x":
        return lambda x, y: x[idx]
    if kind == "y":
        return lambda x, y: y[idx]
    raise ValueError("kind must be 'x' or 'y'")


def _cartan_row(i: int, alpha: list, eta):
    """Row i of the Cartan matrix applied directly: alpha_i -> -alpha_i,
    each cyclic neighbour gains alpha_i, and eta shifts by (-1)^i alpha_i.
    Returns a new alpha list and eta."""
    m = len(alpha)
    ai = alpha[i]
    alpha = alpha[:]
    alpha[i] = 0 - ai     # unlike -ai, keeps the +0 imaginary part of a real entry
    for j in (i - 1, i + 1):
        alpha[j % m] += ai
    return alpha, eta + (-1) ** i * ai


def _transform_params(p: ParameterSet, i: int) -> ParameterSet:
    """The parameter action of generator i (:func:`_cartan_row`)."""
    alpha, eta = _cartan_row(i, list(p.alpha), p.eta)
    return ParameterSet(p.n, tuple(alpha), eta, p.degeneracy)


def _entries(v) -> list:
    """The entries of a state vector as a list of scalars (Python scalars
    for an array, whose own scalars are slower)."""
    return v.tolist() if isinstance(v, np.ndarray) else list(v)


def _act(i: int, x: list, y: list, alpha: list, eta, t):
    """Generator i on the state (x, y) and the parameters (alpha, eta) at t.

    Scalar code on lists in the entries' own arithmetic; returns new lists
    x', y', alpha' and the new eta.  The cycle-closing generators take the
    principal branch of t^alpha_i and raise ValueError on its cut, real
    t <= 0.
    """
    n = len(alpha) // 2 - 1
    if not 0 <= i <= 2 * n + 1:
        raise ValueError(f"generator index {i} out of range 0..{2 * n + 1}")
    ai = alpha[i]
    x, y = x[:], y[:]
    if i == 0 or i == 2 * n + 1:
        if t.imag == 0 and t.real <= 0:
            raise ValueError("t must not lie on the branch cut t <= 0 of the "
                             "cycle-closing generators")
    if i == 0:
        den = x[n] - t * x[0]
        if abs(den) < _DENOM_TOL:
            raise SingularTransformError("generator 0: x_n - t x_0 vanishes")
        y[0] += t * ai / den
        y[n] -= ai / den
        w = t ** (-ai)
        x = [w * v for v in x]
        y = [v / w for v in y]
    elif i == 2 * n + 1:
        if abs(y[n]) < _DENOM_TOL:
            raise SingularTransformError(f"generator {i}: y_n vanishes")
        x[n] += ai / y[n]
        w = t ** ai
        x = [w * v for v in x]
        y = [v / w for v in y]
    elif i % 2 == 1:
        j = (i - 1) // 2          # acts through the momentum y_j
        if abs(y[j]) < _DENOM_TOL:
            raise SingularTransformError(f"generator {i}: y_{j} vanishes")
        x[j] += ai / y[j]
    else:
        j = i // 2                # even generator, acts through x_{j-1} - x_j
        den = x[j - 1] - x[j]
        if abs(den) < _DENOM_TOL:
            raise SingularTransformError(f"generator {i}: x_{j - 1} - x_{j} vanishes")
        y[j - 1] -= ai / den
        y[j] += ai / den
    return (x, y) + _cartan_row(i, alpha, eta)


def apply_generator(i: int, x, y, p: ParameterSet, t):
    """Apply generator i to a state and its parameters at time t.

    Returns (x', y', params') with x', y' arrays of the entries' common
    type.  The arithmetic is that of the entries, alpha, eta and t: exact
    on ``Fraction``s for the t-free generators 1..2n.  The cycle-closing
    generators 0 and 2n+1 carry t^(-alpha_0) and t^alpha_{2n+1}, taken on
    the principal branch at complex t.  Raises
    :class:`SingularTransformError` when the generator's denominator
    vanishes at the state, and ValueError on the branch cut, real t <= 0,
    for the cycle-closing generators.
    """
    x, y, alpha, eta = _act(i, _entries(x), _entries(y), list(p.alpha), p.eta, t)
    return np.array(x), np.array(y), ParameterSet(p.n, tuple(alpha), eta, p.degeneracy)


def apply_word(word, x, y, p: ParameterSet, t):
    """Left-to-right composition of generators; errors carry the position.

    Same arithmetic as :func:`apply_generator`; the parameter set is
    built once, for the result.
    """
    x, y, alpha, eta = _entries(x), _entries(y), list(p.alpha), p.eta
    for pos, i in enumerate(word):
        try:
            x, y, alpha, eta = _act(int(i), x, y, alpha, eta, t)
        except (SingularTransformError, ValueError) as exc:
            raise type(exc)(f"at word position {pos} (generator {i}): {exc}") from exc
    return np.array(x), np.array(y), ParameterSet(p.n, tuple(alpha), eta, p.degeneracy)


_STATE_MARGIN = 0.05
_STATE_ATTEMPTS = 1000


def sample_regular_state(n: int, rng, t: float):
    """Random state keeping every generator denominator at least 0.05 from zero."""
    for _ in range(_STATE_ATTEMPTS):
        x = rng.uniform(0.5, 1.5, n + 1) * rng.choice([-1.0, 1.0], n + 1)
        y = rng.uniform(0.3, 1.3, n + 1) * rng.choice([-1.0, 1.0], n + 1)
        if np.min(np.abs(y)) < _STATE_MARGIN:
            continue
        if np.min(np.abs(np.diff(x))) < _STATE_MARGIN:
            continue
        if abs(x[-1] - t * x[0]) < _STATE_MARGIN:
            continue
        return x.astype(complex), y.astype(complex)
    raise RuntimeError("could not sample a regular state")


def word_deviation(word, x, y, p: ParameterSet, t) -> float:
    """Distance of a word's action from the identity at a state.

    The state deviation is relative to max(1, |x_i|, |y_i|) over the start
    state and every intermediate state, the scale at which the generators
    round; the parameter and eta deviations are absolute.
    """
    x, y, alpha, eta = _entries(x), _entries(y), list(p.alpha), p.eta
    start = x + y
    scale = max(1.0, *map(abs, start))
    for i in word:
        x, y, alpha, eta = _act(int(i), x, y, alpha, eta, t)
        scale = max(scale, *map(abs, x + y))
    dev = max(abs(a - b) for a, b in zip(x + y, start)) / scale
    dev = max(dev, *(abs(a - b) for a, b in zip(alpha, p.alpha)))
    return max(dev, abs(eta - p.eta))


def relation_words(n: int):
    """The defining relations: squares, braids on neighbours, commutations."""
    m = 2 * n + 2
    words = [("square", (i, i)) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if (i - j) % m in (1, m - 1):
                words.append(("braid", (i, j) * 3))
            else:
                words.append(("commute", (i, j) * 2))
    return words


def verify_relations(n: int, trials: int, seed: int):
    """Worst deviation of every defining relation over random regular states at t = 0.4.

    Returns a dict mapping relation class to the maximal deviation seen
    (see :func:`word_deviation`).  States where an intermediate step hits
    a denominator are resampled.
    """
    t = 0.4
    rng = np.random.default_rng(seed)
    worst = {"square": 0.0, "braid": 0.0, "commute": 0.0, "alpha_total": 0.0}
    words = relation_words(n)
    for trial in range(trials):
        p = sample_generic(n, seed=seed + 1000 * trial + 1)
        x, y = sample_regular_state(n, rng, t)
        total0 = sum(p.alpha)
        for kind, word in words:
            for attempt in range(50):
                try:
                    dev = word_deviation(word, x, y, p, t)
                    break
                except (SingularTransformError, ValueError):
                    x, y = sample_regular_state(n, rng, t)
            else:
                raise RuntimeError(f"no regular state found for relation {word}")
            worst[kind] = max(worst[kind], dev)
        # alpha total is preserved by single generators (zero row sums)
        for i in range(2 * n + 2):
            p2 = _transform_params(p, i)
            worst["alpha_total"] = max(worst["alpha_total"], abs(sum(p2.alpha) - total0))
    return worst
