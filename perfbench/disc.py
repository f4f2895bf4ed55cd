"""disc: fundamental matrices inside the unit disc and series sums at its rim.

Each sweep draws a fresh generic parameter set at every rank 1..8 and four
low-rank confluent sets.  Each set gets two points on one ray from the
origin, at 0.1 <= |t| <= 0.35 and 0.35 <= |t| <= 0.6, where
``fundamental_matrix`` is evaluated; the ray is real for half of the
ranks and complex for the other half, alternating between sweeps.  Ten
branch specs of the generic sets are then summed with ``eval_series`` at
0.9 <= t <= 0.999, one on each rung of two ladders of 1 - t, so the
near-origin and rim parts each take a comparable share of a sweep.

Checks: every matrix column against the benchmark's own Frobenius series
carried out by scipy DOP853, det Y(t2)/det Y(t1) against Abel-Liouville,
and every rim value against mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import oracles
from common import item_span, ok, run_item, seed_from

GENERIC_RANKS = tuple(range(1, 9))
CONFLUENT_SETS = ((1, 1), (1, 2), (2, 1), (2, 3))
# sample_generic's default margin 0.05 cannot be met at rank 8 within its
# 5000 draws; 0.02 keeps every rank's draw in the millisecond range.
MARGIN = 0.02
INNER_RADII = (0.1, 0.35)
OUTER_RADII = (0.35, 0.6)
# 1 - t on the rim rungs; each is stretched by a factor in [1, RIM_STRETCH]
RIM_GAPS = (0.001, 0.003, 0.01, 0.03, 0.08)
RIM_STRETCH = 1.05
RIM_LADDERS = ((1, 2, 3, 4, 5), (8, 7, 6, 5, 4))   # rank of the set on each rung

# The checks import scipy and mpmath, so they wait until the timed phase
# and the peak-RSS reading are over.
DEFERRED_CHECKS = True

COLUMN_RTOL = 1e-9
LIOUVILLE_RTOL = 1e-10      # times the summed condition numbers of the two matrices
RIM_RTOL = 1e-8


@dataclass
class MatrixItem:
    p: object
    level: int
    theta: float
    radii: tuple

    @property
    def ts(self):
        if self.theta == 0.0:
            return tuple(float(r) for r in self.radii)
        return tuple(complex(r * np.exp(1j * self.theta)) for r in self.radii)


@dataclass
class RimItem:
    p: object
    k: int
    l: int
    spec: object
    t: float


@dataclass
class Batch:
    matrices: list
    rims: list


def _ray(rng, real):
    theta = 0.0 if real else float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.6))
    return theta, (float(rng.uniform(*INNER_RADII)), float(rng.uniform(*OUTER_RADII)))


def build(cp, rng, index):
    generic = {}
    matrices = []
    for n in GENERIC_RANKS:
        generic[n] = cp.params.sample_generic(n, seed_from(rng), margin=MARGIN)
        theta, radii = _ray(rng, real=(n + index) % 2 == 0)
        matrices.append(MatrixItem(generic[n], 0, theta, radii))
    for i, (n, r) in enumerate(CONFLUENT_SETS):
        p = cp.params.sample_degenerate(n, r, seed_from(rng))
        theta, radii = _ray(rng, real=(i + index) % 2 == 0)
        matrices.append(MatrixItem(p, r, theta, radii))
    rims = []
    for ladder in RIM_LADDERS:
        for n, gap in zip(ladder, RIM_GAPS):
            k, l = (int(v) for v in rng.integers(0, n + 1, 2))
            _, spec = cp.linear.branch_spec(generic[n], k, l)
            rims.append(RimItem(generic[n], k, l, spec, 1.0 - gap * float(rng.uniform(1.0, RIM_STRETCH))))
    return Batch(matrices, rims)


def entries(outputs):
    """One entry per item: each matrix evaluation, then each rim value."""
    return [Y for outs in outputs["matrices"] for Y in outs] + outputs["rims"]


def sweep(cp, batch, tr=None):
    fm = cp.linear.fundamental_matrix
    eval_series = cp.hyperfn.eval_series
    matrices = []
    for item in batch.matrices:
        name = (f"linear.fundamental_matrix_n{item.p.n}" if item.level == 0
                else "linear.fundamental_matrix_confluent")
        outs = []
        for t in item.ts:
            with item_span(tr, "disc.matrix"):
                outs.append(run_item(tr, name, fm, item.p, t))
                if tr is not None and item.level == 0:
                    _replay_matrix(cp, tr, item.p, t)
        matrices.append(outs)
    rims = []
    for item in batch.rims:
        with item_span(tr, "disc.rim"):
            out = run_item(tr, "hyperfn.eval_series", eval_series, item.spec, item.t)
        if tr is not None and ok(out):
            tr.sample("hyperfn.eval_series_terms", out[1])
        rims.append(out)
    return {"matrices": matrices, "rims": rims}


def _replay_matrix(cp, tr, p, t):
    """Time the public lower-module calls one generic matrix is made of."""
    n = p.n
    for i in range(n):
        tr.call("params.partial_sum", cp.params.partial_sum, p, 2 * i + 2, 2 * n - 2 * i - 1)
    for k in range(n + 1):
        sol = tr.call("linear.fundamental_solution", cp.linear.fundamental_solution, p, k)
        tr.call("linear.solution_value", sol.value, t)
        summed = sol.depth + 1
        for l in range(n + 1):
            _, spec = tr.call("linear.branch_spec", cp.linear.branch_spec, p, k, l)
            tr.call("hyperfn.series_coefficients", cp.hyperfn.series_coefficients, spec, sol.depth)
            _, needed = tr.call("hyperfn.eval_series_at_matrix_t", cp.hyperfn.eval_series, spec, t)
            tr.sample("linear.useful_term_ratio", min(needed, summed) / summed)


def check(batch, outputs):
    """Failure messages, one per item whose output is wrong."""
    bad = []
    for item, outs in zip(batch.matrices, outputs["matrices"]):
        bad.extend(_check_matrices(item, outs))
    for item, out in zip(batch.rims, outputs["rims"]):
        if not ok(out):
            continue
        ref = oracles.hyper(item.spec.upper, item.spec.lower, item.t)
        err = abs(out[0] - ref) / abs(ref)
        if not err <= RIM_RTOL:
            bad.append(f"rim n={item.p.n} k={item.k} l={item.l} t={item.t!r}: "
                       f"relative error {err:.2e} against mpmath")
    return bad


def _check_matrices(item, outs):
    n = item.p.n
    alpha = np.array([complex(a) for a in item.p.alpha])
    A0, A1 = oracles.residue_matrices(alpha, n, item.level)
    refs = oracles.transported_matrices(A0, A1, item.level, item.theta, item.radii)
    bad = []
    for t, Y, R in zip(item.ts, outs, refs):
        if not ok(Y):
            continue
        errs = np.linalg.norm(Y - R, axis=0) / np.linalg.norm(R, axis=0)
        if not np.max(errs) <= COLUMN_RTOL:
            bad.append(f"matrix n={n} level={item.level} t={t!r}: column error "
                       f"{np.max(errs):.2e} against DOP853 transport")
    if all(ok(Y) for Y in outs):
        t1, t2 = item.ts
        Y1, Y2 = outs
        got = np.linalg.det(Y2) / np.linalg.det(Y1)
        want = oracles.liouville_ratio(A0, A1, item.level, t1, t2)
        err = abs(got / want - 1.0)
        tol = LIOUVILLE_RTOL * (_cond(Y1) + _cond(Y2))
        if not err <= tol:
            bad.append(f"matrix n={n} level={item.level} t={t1!r},{t2!r}: Abel-Liouville "
                       f"error {err:.2e} above {tol:.2e}")
    return bad


def _cond(Y):
    return float(np.linalg.cond(Y / np.linalg.norm(Y, axis=0)))
