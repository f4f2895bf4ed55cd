"""Reference computations made apart from cpvi, used only by the checks.

Nothing here imports cpvi.  The residue matrices are rebuilt from the
window-sum formulas with numpy, the series solutions at a small starting
point come from the benchmark's own Frobenius recurrence, and the
transport to the evaluation points is scipy's DOP853.  Rim values come
from mpmath.  scipy and mpmath are imported on first use, so a run loads
them only after its timed phase (flow screening aside).
"""

from __future__ import annotations

import numpy as np

TRANSPORT_START = 0.05      # |t| where the Frobenius series hands over to DOP853
TRANSPORT_RTOL = 1e-13
FROBENIUS_TERMS = 24        # 0.05**24 ~ 6e-32: far below double rounding
FLOW_RTOL = 1e-12
FLOW_ATOL = 1e-14
BLOWUP = 1e3                # screened trajectories stay below this modulus
SCREEN_RTOL = 1e-6
SCREEN_CALLS = 400           # a regular loose pass over [0.3, 0.5] takes about 30


def window(alpha, k, l):
    """alpha_k + ... + alpha_{k+l}, indices mod len(alpha); 0 for l < 0."""
    m = len(alpha)
    return alpha[(k + np.arange(l + 1)) % m].sum()


def residue_matrices(alpha, n, level=0):
    """(A0, A1) of the position system of a rank-n set at confluence ``level``.

    Generic (level 0): A0 upper triangular with diagonal -w_i, w_i the
    window of 2n-2i entries from alpha_{2i+2}, and alpha_{2j+1} above the
    diagonal; A1 has every row equal to (alpha_1, alpha_3, ..., alpha_{2n+1}).
    Level r: the same diagonal, ones on the first r-1 superdiagonal places,
    alpha_{2j+1} above the diagonal from row r-1 on, and A1 the constant
    matrix with ones in column 0 from row r-1 on.
    """
    alpha = np.asarray(alpha, dtype=complex)
    odd = alpha[1::2]
    A0 = np.zeros((n + 1, n + 1), dtype=complex)
    A1 = np.zeros((n + 1, n + 1), dtype=complex)
    for i in range(n):
        A0[i, i] = -window(alpha, 2 * i + 2, 2 * n - 2 * i - 1)
    if level == 0:
        for i in range(n):
            A0[i, i + 1:] = odd[i + 1:]
        A1[:, :] = odd[None, :]
    else:
        for i in range(level - 1):
            A0[i, i + 1] += 1.0
        for i in range(level - 1, n):
            A0[i, i + 1:] += odd[i + 1:]
        A1[level - 1:, 0] = 1.0
    return A0, A1


def coefficient(A0, A1, level, t):
    return A0 / t + (A1 / (1.0 - t) if level == 0 else A1)


def frobenius_column(A0, A1, level, k, t):
    """Branch-k solution t^rho (u_0 + u_1 t + ...) at small t.

    rho = A0[k, k]; u_0 is the eigenvector of A0 with entry k equal to 1
    and zeros below, and (A0 - (rho+j)) u_j equals (A0 - A1 - (rho+j-1)) u_{j-1}
    for the Fuchsian system, -A1 u_{j-1} for a confluent one.
    """
    size = len(A0)
    eye = np.eye(size)
    rho = A0[k, k]
    u = np.zeros(size, dtype=complex)
    u[k] = 1.0
    if k:
        M = A0 - rho * eye
        u[:k] = np.linalg.solve(M[:k, :k], -M[:k, k])
    total = u.copy()
    power = 1.0 + 0.0j
    for j in range(1, FROBENIUS_TERMS + 1):
        if level == 0:
            rhs = (A0 - A1 - (rho + j - 1) * eye) @ u
        else:
            rhs = -A1 @ u
        u = np.linalg.solve(A0 - (rho + j) * eye, rhs)
        power *= t
        total += u * power
    return np.exp(rho * np.log(t)) * total


def transported_matrices(A0, A1, level, theta, radii):
    """Fundamental matrix at t = r e^{i theta} for each r in ``radii``.

    Starts from the Frobenius columns at |t| = TRANSPORT_START and carries
    them along the ray with DOP853.
    """
    from scipy.integrate import solve_ivp

    size = len(A0)
    e = np.exp(1j * theta)
    Y0 = np.stack([frobenius_column(A0, A1, level, k, TRANSPORT_START * e)
                   for k in range(size)], axis=1)
    atol = np.repeat(1e-16 * np.linalg.norm(Y0, axis=0)[None, :], size, axis=0).ravel()

    def rhs(s, y):
        return (e * (coefficient(A0, A1, level, s * e) @ y.reshape(size, size))).ravel()

    order = np.argsort(radii)
    grid = np.asarray(radii, dtype=float)[order]
    sol = solve_ivp(rhs, (TRANSPORT_START, grid[-1]), Y0.ravel(), method="DOP853",
                    rtol=TRANSPORT_RTOL, atol=atol, t_eval=grid)
    if not sol.success:
        raise RuntimeError(f"reference transport failed: {sol.message}")
    out = [None] * len(grid)
    for col, idx in enumerate(order):
        out[idx] = sol.y[:, col].reshape(size, size)
    return out


def liouville_ratio(A0, A1, level, t1, t2):
    """det Y(t2) / det Y(t1) from the traces alone (Abel-Liouville)."""
    log_ratio = np.trace(A0) * (np.log(t2) - np.log(t1))
    if level == 0:
        log_ratio -= np.trace(A1) * (np.log(1.0 - t2) - np.log(1.0 - t1))
    else:
        log_ratio += np.trace(A1) * (t2 - t1)
    return np.exp(log_ratio)


def hyper(upper, lower, t):
    """pFq(upper; lower; t) by mpmath's direct summation at 15 digits."""
    import mpmath

    with mpmath.workdps(15):
        value = mpmath.hyper([mpmath.mpc(a) for a in upper], [mpmath.mpc(b) for b in lower],
                             mpmath.mpf(t), force_series=True, maxterms=10 ** 6)
        return complex(value)


class _TooStiff(Exception):
    pass


def reference_trajectory(rhs, state0, ts):
    """DOP853 samples of ``rhs`` at ``ts``, or None near a singularity.

    A loose pass first rejects, cheaply, states whose solution leaves
    |y| < BLOWUP or needs more than SCREEN_CALLS field calls (steps
    collapsing onto a branch point); only states that pass it are
    integrated at FLOW_RTOL.
    """
    from scipy.integrate import solve_ivp

    def blowup(t, y):
        return BLOWUP - np.max(np.abs(y))

    blowup.terminal = True
    calls = [0]

    def capped(t, y):
        calls[0] += 1
        if calls[0] > SCREEN_CALLS:
            raise _TooStiff
        return rhs(t, y)

    y0 = np.asarray(state0, dtype=complex)
    for fun, rtol, atol in ((capped, SCREEN_RTOL, SCREEN_RTOL), (rhs, FLOW_RTOL, FLOW_ATOL)):
        try:
            sol = solve_ivp(fun, (ts[0], ts[-1]), y0, method="DOP853", rtol=rtol, atol=atol,
                            t_eval=ts, events=blowup)
        except _TooStiff:
            return None
        if sol.status != 0 or sol.y.shape[1] != len(ts) or not np.all(np.isfinite(sol.y)):
            return None
    return sol.y.T.copy()


def riccati_defect(alpha, q, dq, t):
    """t(t-1) q' minus the momentum-free rank-1 right-hand side, relative.

    The right-hand side is alpha_1 q^2 + ((alpha_3 + alpha_0) t - (alpha_0 + alpha_1)) q
    - alpha_3 t.
    """
    a0, a1, _, a3 = (complex(a) for a in alpha)
    rhs = a1 * q * q + ((a3 + a0) * t - (a0 + a1)) * q - a3 * t
    return abs(t * (t - 1.0) * dq - rhs) / max(1.0, abs(q) ** 2)

