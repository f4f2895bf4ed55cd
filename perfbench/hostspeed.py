"""Host-speed reference for the timed sweeps.

The 2-core sandbox this benchmark was built on shares its cores: sweeps
of the same make-up ran at 150 ms for some minutes and at 250 ms for
others, depending on what else ran on the machine, in wall and in CPU
time alike.  So every
timed sweep is bracketed by two runs of a fixed reference computation
that does not touch cpvi (a complex series loop, small numpy solves and
Fraction arithmetic, the instruction mix of the workloads), and the
sweep's wall time is scaled by NOMINAL_S / (mean of the two reference
times).  Times are thus reported in milliseconds of a host on which the
reference takes NOMINAL_S; the raw wall times go to the result file.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.005
_A = np.eye(6) * 4.0 + np.arange(36.0).reshape(6, 6) / 36.0


def reference_seconds():
    """Wall time of one run of the fixed reference computation."""
    start = time.perf_counter()
    term, total = 1.0 + 0.0j, 0.0j
    for i in range(1, 6000):
        term *= 0.999 * (0.3 + i) * (0.7 + 0.1j + i) / ((1.1 + i) * i)
        total += term
    v = np.ones(6, dtype=complex)
    for _ in range(150):
        v = np.linalg.solve(_A, v) * 4.0 + np.concatenate((v[3:], v[:3]))
    f = Fraction(1)
    for i in range(1, 120):
        f = f * Fraction(97 + i, 89 + 2 * i) + Fraction(1, i)
    return time.perf_counter() - start


def factor(before, after):
    """Scale for a wall time bracketed by reference runs taking ``before`` and ``after``."""
    return NOMINAL_S / (0.5 * (before + after))
