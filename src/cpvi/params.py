"""Parameter algebra for the coupled Painleve VI hierarchy.

A rank-n parameter set carries 2n+2 scalars alpha_0..alpha_{2n+1} (indices
cyclic modulo 2n+2) and the auxiliary constant eta.  Generic sets satisfy
sum(alpha) = 1; confluent sets of level r >= 1 additionally have
alpha_{2i} = 0 for i < r, which keeps the same normalisation.  Cyclic
partial sums over index windows are the raw material for every residue
matrix, local exponent and hypergeometric parameter downstream, so they
live here.

Scalars are complex doubles in production; ``Fraction`` entries are
accepted as well and all window arithmetic then stays exact (used by the
rational cross-check of the series recurrence).  For a set whose entries
are all Fractions, :func:`integer_windows` gives every window sum as an
integer numerator over the lcm d of the denominators, read from one prefix
sum of the numerators d * alpha_i; the exact recurrence and closed form of
``linear`` compute on those integers and form a Fraction only per result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate

import numpy as np

SUM_TOL = 1e-12
_SAMPLE_ATTEMPTS = 5000     # rejection draws before the constructive draw


class SamplingError(RuntimeError):
    """Rejection sampling could not meet the requested genericity margin."""


def _dist_to_int(z) -> float:
    """Euclidean distance from a scalar to the nearest (real) integer."""
    z = complex(z)
    return float(np.hypot(z.real - round(z.real), z.imag))


@dataclass(frozen=True)
class ParameterSet:
    """Rank, cyclic alpha tuple, eta, and the confluence level.

    ``degeneracy`` is 0 for a generic set and r in 1..n+1 for a confluent
    set of level r (alpha_0, alpha_2, ..., alpha_{2r-2} all zero).
    """

    n: int
    alpha: tuple
    eta: complex = 0.0
    degeneracy: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("rank must be >= 1")
        if len(self.alpha) != 2 * self.n + 2:
            raise ValueError(f"expected {2 * self.n + 2} alpha entries, got {len(self.alpha)}")
        if not 0 <= self.degeneracy <= self.n + 1:
            raise ValueError(f"confluence level {self.degeneracy} out of range 0..{self.n + 1}")
        total = sum(self.alpha, self.alpha[0] * 0)
        if not self._negligible(complex(total) - 1.0):
            raise ValueError(f"alpha sum {total!r} violates the normalisation sum(alpha) = 1")
        for i in range(self.degeneracy):
            if not self._negligible(complex(self.alpha[2 * i])):
                raise ValueError(f"level-{self.degeneracy} set needs alpha_{2 * i} = 0")

    def _negligible(self, z) -> bool:
        """Whether |z| <= SUM_TOL * max(1, max|alpha|), rounding level at the set's scale.

        Entries of size 1/eps (``degenerate_replace``) carry rounding errors
        of that size.  The scale is computed only when the absolute test
        fails, so unit-scale sets pay nothing for it.
        """
        if abs(z) <= SUM_TOL:
            return True
        return abs(z) <= SUM_TOL * max(1.0, max(abs(complex(a)) for a in self.alpha))

    # -- cyclic access -------------------------------------------------

    def alpha_at(self, i: int):
        return self.alpha[i % (2 * self.n + 2)]

    def partial_sum(self, k: int, l: int):
        """Window sum alpha_k + ... + alpha_{k+l}, empty (0) for l < 0.

        Indices are reduced mod 2n+2, so windows longer than a full period
        pick up whole copies of sum(alpha).
        """
        zero = self.alpha[0] * 0
        if l < 0:
            return zero
        m = 2 * self.n + 2
        k = k % m
        total = zero
        for i in range(k, k + l + 1):
            total = total + self.alpha[i % m]
        return total

    def shifted(self, s: int) -> "ParameterSet":
        """Cyclic relabelling alpha_i -> alpha_{i+s} (eta kept)."""
        m = 2 * self.n + 2
        rotated = tuple(self.alpha[(i + s) % m] for i in range(m))
        return ParameterSet(self.n, rotated, self.eta, 0)

    def with_degeneracy(self, r: int) -> "ParameterSet":
        """Reinterpret the set at confluence level r (invariants re-checked)."""
        return replace(self, degeneracy=r)

    def with_eta(self, eta) -> "ParameterSet":
        return replace(self, eta=eta)

    # -- serialisation -------------------------------------------------

    def to_json(self) -> dict:
        kind = "generic" if self.degeneracy == 0 else {"degenerate": self.degeneracy}
        return {
            "n": self.n,
            "alpha": [_scalar_to_json(a) for a in self.alpha],
            "eta": _scalar_to_json(self.eta),
            "kind": kind,
        }

    @staticmethod
    def from_json(data: dict) -> "ParameterSet":
        kind = data.get("kind", "generic")
        degeneracy = 0 if kind == "generic" else int(kind["degenerate"])
        return ParameterSet(
            n=int(data["n"]),
            alpha=tuple(_scalar_from_json(a) for a in data["alpha"]),
            eta=_scalar_from_json(data.get("eta", 0.0)),
            degeneracy=degeneracy,
        )


def _scalar_to_json(z):
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def _scalar_from_json(v):
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return complex(v)


def partial_sum(p: ParameterSet, k: int, l: int):
    """Free-function form of :meth:`ParameterSet.partial_sum`."""
    return p.partial_sum(k, l)


def integer_windows(p: ParameterSet):
    """(d, window) for a set whose entries are all Fractions, else None.

    d is the lcm of the denominators and window(k, l) the integer
    d * p.partial_sum(k, l), read from one prefix sum of the numerators
    c_i = d * alpha_i: a window of q whole periods and r more terms is q
    times the period sum plus one difference of prefix sums.
    """
    if not all(isinstance(a, Fraction) for a in p.alpha):
        return None
    d = math.lcm(*(a.denominator for a in p.alpha))
    c = [a.numerator * (d // a.denominator) for a in p.alpha]
    m = len(c)
    prefix = list(accumulate(c + c, initial=0))

    def window(k: int, l: int) -> int:
        if l < 0:
            return 0
        q, r = divmod(l + 1, m)
        k %= m
        return q * prefix[m] + prefix[k + r] - prefix[k]

    return d, window


# -- genericity --------------------------------------------------------

def genericity_margin(p: ParameterSet) -> float:
    """Distance of the non-resonance quantities from the integers.

    The guarded quantities are the window sums starting at an even index
    with an even number of terms, the analogous odd-start windows, and
    (for generic sets) the total of the odd-indexed entries.  Together
    with sum(alpha) = 1 these bound every pivot, Pochhammer denominator
    and exponent difference used downstream away from the integers.  For
    a confluent set the odd total is structurally fixed, so it is not a
    free condition and is skipped.
    """
    return min(_window_distances(p))


def _window_distances(p: ParameterSet):
    """The distances of :func:`genericity_margin`, one at a time, so a
    margin test can stop at the first that fails."""
    n = p.n
    for i in range(1, n + 1):
        for j in range(1, n - i + 2):
            yield _dist_to_int(p.partial_sum(2 * i, 2 * j - 1))
            yield _dist_to_int(p.partial_sum(2 * i - 1, 2 * j - 1))
    if p.degeneracy == 0:
        yield _dist_to_int(sum(p.alpha[1::2], p.alpha[0] * 0))


def sample_generic(n: int, seed: int, margin: float = 0.05) -> ParameterSet:
    """Draw a real generic set with all non-resonance margins >= ``margin``.

    Deterministic in ``seed``; raises :class:`SamplingError` if the margin
    cannot be met (see :func:`sample_degenerate`).  This is
    :func:`sample_degenerate` at level 0.
    """
    return sample_degenerate(n, 0, seed, margin)


def sample_degenerate(n: int, r: int, seed: int, margin: float = 0.05) -> ParameterSet:
    """Draw a real set of level r (0 generic) with the window margins enforced.

    alpha_0, alpha_2, ..., alpha_{2r-2} are zero; the other entries are
    drawn uniformly and shifted to sum to 1, up to ``_SAMPLE_ATTEMPTS`` times.
    If no draw meets the margin, one constructive draw follows
    (:func:`_constructive_draw`); :class:`SamplingError` is raised only
    when that cannot meet it either.
    """
    if not 0 <= r <= n + 1:
        raise ValueError(f"confluence level {r} out of range 0..{n + 1}")
    rng = np.random.default_rng(seed)
    m = 2 * n + 2
    free = [i for i in range(m) if i % 2 == 1 or i >= 2 * r]
    for _ in range(_SAMPLE_ATTEMPTS):
        alpha = np.zeros(m)
        draw = rng.uniform(-0.45, 0.75, len(free))
        draw += (1.0 - draw.sum()) / len(free)
        alpha[free] = draw
        eta = rng.uniform(-0.75, 0.75)
        p = ParameterSet(n, tuple(complex(a) for a in alpha), complex(eta), r)
        if all(d >= margin for d in _window_distances(p)):
            return p
    p = _constructive_draw(n, r, margin, rng)
    if p is not None and all(d >= margin for d in _window_distances(p)):
        return p
    raise SamplingError(
        f"no level-{r} set with margin {margin} after {_SAMPLE_ATTEMPTS} attempts (n={n})")


def _constructive_draw(n: int, r: int, margin: float, rng):
    """A level-r set with odd entries >= margin and free even entries >= margin/2.

    All entries are then non-negative and sum to 1.  Every guarded window
    has even length, so it holds an odd slot, and so does its complement
    in the period: the window lies in [margin, 1 - margin].  At r = 0 the
    odd total lies there too.  The floors leave 1 - (n+1) margin -
    (n+1-r) margin/2 to share out at random; None if that is negative.
    """
    floor = np.zeros(2 * n + 2)
    floor[1::2] = margin
    floor[2 * r::2] = margin / 2
    spare = 1.0 - floor.sum()
    if spare < 0:
        return None
    free = np.flatnonzero(floor)
    weights = rng.uniform(0.0, 1.0, len(free))
    alpha = floor.copy()
    alpha[free] += spare * weights / weights.sum()
    eta = rng.uniform(-0.75, 0.75)
    return ParameterSet(n, tuple(complex(a) for a in alpha), complex(eta), r)


_RATIONAL_DENOMINATOR = 97
_RATIONAL_ATTEMPTS = 5000


def sample_rational_generic(n: int, seed: int) -> ParameterSet:
    """Generic set with exact ``Fraction`` entries and non-integer windows.

    Entries are multiples of 1/97.  Every window sum of even length (any
    start, any length up to a full period) is checked to be a non-integer
    exactly, which is what the exact recurrence/closed-form comparison
    divides by.
    """
    rng = np.random.default_rng(seed)
    m = 2 * n + 2
    for _ in range(_RATIONAL_ATTEMPTS):
        nums = rng.integers(-40, 61, m)
        nums[-1] = _RATIONAL_DENOMINATOR - int(nums[:-1].sum())
        alpha = tuple(Fraction(int(v), _RATIONAL_DENOMINATOR) for v in nums)
        p = ParameterSet(n, alpha, Fraction(0), 0)
        if all(p.partial_sum(start, card - 1).denominator != 1
               for start in range(m) for card in range(2, m, 2)):
            return p
    raise SamplingError(
        f"no rational generic set after {_RATIONAL_ATTEMPTS} attempts (n={n})")


def degenerate_replace(p: ParameterSet, eps) -> ParameterSet:
    """Substitute the pair of entries that the next confluence step removes.

    For a level-s set (s = 0 generic) the substitution targets slots 2s and 2s+1:
    alpha_{2s} -> -1/eps and alpha_{2s+1} -> alpha_{2s+1} + 1/eps, in the arithmetic of
    the set and eps (a ``Fraction`` set and eps give a ``Fraction`` set).  On chain inputs
    the erased slot holds 0 (a level-(s+1) set read at level s), so the inserted terms
    cancel and sum(alpha) is unchanged; the result is the finite-eps source system whose
    eps -> 0 limit is the level-(s+1) Hamiltonian.
    """
    if eps == 0:
        raise ValueError("eps must be nonzero")
    s = p.degeneracy
    alpha = list(p.alpha)
    alpha[2 * s] = alpha[2 * s] * 0 - 1 / eps        # * 0 keeps the entry's arithmetic
    alpha[2 * s + 1] = alpha[2 * s + 1] + 1 / eps
    return ParameterSet(p.n, tuple(alpha), p.eta, s)
