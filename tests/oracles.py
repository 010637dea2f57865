"""Unfiltered row passes: every row through the exact path.

These are the package's row loops as they were before the float64 filter,
kept as oracles: the filtered kernels in ``modap.geometry`` and the lazy
translation in ``modap.dynamics`` must reproduce them bit for bit.  Each
takes the same arguments as its library counterpart, so a test can patch it
in where the program looks the name up.
"""

import numpy as np

from modap.summation import exact_dot


def violated_slices(sys, x, start=0, stop=None):
    if stop is None:
        stop = sys.m
    out = []
    for i in range(start, stop):
        r = exact_dot(sys.a[i], x) - float(sys.b[i])
        if r > 0.0:
            out.append((r / float(sys.row_norms_sq[i])) * sys.a[i])
    return out


def eps_membership(sys, x, eps):
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = np.asarray(x, dtype=np.float64)
    a, b, norms = sys.a, sys.b, sys.row_norms
    for i in range(sys.m):
        r = exact_dot(a[i], x) - float(b[i])
        if r > 0.0 and r / float(norms[i]) >= eps:
            return False
    return True


def max_relative_violation(sys, x):
    x = np.asarray(x, dtype=np.float64)
    a, b, norms = sys.a, sys.b, sys.row_norms
    worst = 0.0
    for i in range(sys.m):
        r = exact_dot(a[i], x) - float(b[i])
        if r > 0.0:
            v = r / float(norms[i])
            if v > worst:
                worst = v
    return worst


def translate(sys, v):
    v = np.asarray(v, dtype=np.float64)
    new_b = np.fromiter(
        (float(sys.b[i]) + exact_dot(sys.a[i], v) for i in range(sys.m)),
        dtype=np.float64,
        count=sys.m,
    )
    return sys.with_rhs(new_b)
