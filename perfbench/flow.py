"""flow: adaptive trajectories of the hierarchy's vector fields.

Each sweep integrates, over [0.3, 0.5] with 11 dense samples and
``integrate``'s default tolerances, fresh trajectories of four kinds:
symmetric-form flows at ranks 1..4 (``symmetric_rhs``), confluent-level
flows (``degenerate_rhs``), coupled P_VI flows (``cp6_rhs``) and Fuchsian
linear systems (``linear_rhs``).  A field call costs about the same at any
rank, so the per-call overhead of the field and the stepper dominates.

Inputs: an initial state is kept only if scipy DOP853 carries it to 0.5
without leaving |y| < 1e3.  Some random states at higher rank run into a
movable pole before 0.5; that is a property of the equations, so this
screening is input generation, done before the sweep is timed.  The
DOP853 samples it produces are the reference the checks compare with.

Checks: every sample against DOP853 at rtol 1e-12 (the linear systems use
the benchmark's own residue matrices), and on symmetric and confluent
flows the drift of sum(x_i y_i) + eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import oracles
from common import item_span, ok, run_item, seed_from

T0, T1 = 0.3, 0.5
DENSE_TS = np.linspace(T0, T1, 11)
PER_SET = 2                                   # trajectories per parameter set
SYMMETRIC_RANKS = (1, 2, 3, 4)
CONFLUENT_SETS = ((1, 1), (2, 2), (3, 1))
CP6_RANKS = (1, 2, 3)
LINEAR_RANKS = (2, 4)
MAX_DRAWS = 200

DEFERRED_CHECKS = False     # comparisons with the stored reference samples only

SAMPLE_RTOL = 1e-7
CONSTRAINT_TOL = 1e-8

FIELD_SPANS = {
    "symmetric": "dynamics.symmetric_field",
    "degenerate": "dynamics.degenerate_field",
    "cp6": "dynamics.cp6_field",
    "linear": "dynamics.linear_field",
}


@dataclass
class FlowItem:
    kind: str
    p: object
    system: object = None
    state0: np.ndarray = None
    ref: np.ndarray = None


def build(cp, rng, index):
    items = []
    for n in SYMMETRIC_RANKS:
        p = cp.params.sample_generic(n, seed_from(rng))
        items += [FlowItem("symmetric", p) for _ in range(PER_SET)]
    for n, r in CONFLUENT_SETS:
        p = cp.params.sample_degenerate(n, r, seed_from(rng))
        items += [FlowItem("degenerate", p) for _ in range(PER_SET)]
    for n in CP6_RANKS:
        p = cp.params.sample_generic(n, seed_from(rng))
        items += [FlowItem("cp6", p) for _ in range(PER_SET)]
    for n in LINEAR_RANKS:
        p = cp.params.sample_generic(n, seed_from(rng))
        system = cp.linear.build_fuchsian(p)
        items += [FlowItem("linear", p, system) for _ in range(PER_SET)]
    return items


def _rhs(cp, item):
    d = cp.dynamics
    if item.kind == "symmetric":
        return d.symmetric_rhs(item.p)
    if item.kind == "degenerate":
        return d.degenerate_rhs(item.p)
    if item.kind == "cp6":
        return d.cp6_rhs(item.p)
    return d.linear_rhs(item.system)


def _draw_state(item, rng):
    n = item.p.n
    if item.kind in ("symmetric", "degenerate"):
        x = (rng.uniform(0.5, 1.5, n + 1) * rng.choice((-1.0, 1.0), n + 1)).astype(complex)
        y = rng.uniform(-0.6, 0.6, n + 1).astype(complex)
        y[0] = -(complex(item.p.eta) + np.sum(x[1:] * y[1:])) / x[0]
        return np.concatenate((x, y))
    if item.kind == "cp6":
        return rng.uniform(-1.0, 1.0, 2 * n).astype(complex)
    return rng.uniform(-1.0, 1.0, n + 1) + 1j * rng.uniform(-1.0, 1.0, n + 1)


def screen(cp, batch, rng):
    """Draw each item's initial state and its DOP853 reference samples."""
    for item in batch:
        if item.kind == "linear":
            alpha = np.array([complex(a) for a in item.p.alpha])
            A0, A1 = oracles.residue_matrices(alpha, item.p.n)
            rhs = lambda t, v, A0=A0, A1=A1: oracles.coefficient(A0, A1, 0, t) @ v
        else:
            rhs = _rhs(cp, item)
        for _ in range(MAX_DRAWS):
            state0 = _draw_state(item, rng)
            ref = oracles.reference_trajectory(rhs, state0, DENSE_TS)
            if ref is not None:
                item.state0, item.ref = state0, ref
                break
        else:
            raise RuntimeError(f"no {item.kind} state of rank {item.p.n} reaches t = {T1}")


def entries(outs):
    return list(outs)


def sweep(cp, batch, tr=None):
    outs = []
    for item in batch:
        rhs = _rhs(cp, item)
        with item_span(tr, f"flow.{item.kind}"):
            if tr is None:
                outs.append(run_item(None, "dynamics.integrate", cp.dynamics.integrate, rhs,
                                     item.state0, T0, T1, dense_ts=DENSE_TS))
            else:
                outs.append(_traced_trajectory(cp, tr, item, rhs))
    return outs


def _traced_trajectory(cp, tr, item, rhs):
    """Integrate with the rhs wrapped in a span, and record the step counts."""
    n = item.p.n
    if item.kind in ("symmetric", "degenerate"):
        for i in range(n + 1):
            tr.call("params.partial_sum", cp.params.partial_sum, item.p, 2 * i + 2, 2 * n - 2 * i - 1)
    field_span = FIELD_SPANS[item.kind]
    first = len(tr.spans)
    traj = run_item(tr, "dynamics.integrate", cp.dynamics.integrate,
                    lambda t, v: tr.call(field_span, rhs, t, v), item.state0,
                    T0, T1, dense_ts=DENSE_TS)
    if ok(traj):
        span = tr.spans[first]
        total = span[3] - span[2]
        rhs_spans = [s for s in tr.spans[first + 1:] if s[4] == span[0]]
        in_rhs = sum(s[3] - s[2] for s in rhs_spans)
        steps = max(traj.steps, 1)
        tr.sample("dynamics.rhs_calls", len(rhs_spans))
        tr.sample("dynamics.rejected_steps", traj.rejected)
        tr.sample("dynamics.step_us", total * 1e-3 / steps)
        tr.sample("dynamics.stepper_self_us", (total - in_rhs) * 1e-3 / steps)
    return traj


def check(batch, outs):
    bad = []
    for item, traj in zip(batch, outs):
        if not ok(traj):
            continue
        n = item.p.n
        where = f"{item.kind} n={n}"
        if traj.states.shape != item.ref.shape:
            bad.append(f"{where}: {traj.states.shape[0]} samples, expected {item.ref.shape[0]}")
            continue
        errs = np.linalg.norm(traj.states - item.ref, axis=1) / np.linalg.norm(item.ref, axis=1)
        if not np.max(errs) <= SAMPLE_RTOL:
            bad.append(f"{where}: sample error {np.max(errs):.2e} against DOP853")
            continue
        if item.kind in ("symmetric", "degenerate"):
            drift = np.abs(np.sum(traj.states[:, : n + 1] * traj.states[:, n + 1:], axis=1)
                           + complex(item.p.eta))
            if not np.max(drift) <= CONSTRAINT_TOL:
                bad.append(f"{where}: constraint drift {np.max(drift):.2e}")
    return bad
