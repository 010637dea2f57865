"""Earlier implementations of the package's exact kernels, kept as oracles.

The row loops are the package's as they were before the float64 filter:
the filtered kernels in ``modap.geometry`` and the lazy translation in
``modap.dynamics`` must reproduce them bit for bit.  Each takes the same
arguments as its library counterpart, so a test can patch it in where the
program looks the name up.

``grow_expansion`` and ``VectorExpansion`` are the hand-written expansion
arithmetic (Shewchuk, DCG 18, 1997) that summed the slices before
``modap.summation.column_sums``; the column sums must equal their rounded
results bit for bit.
"""

import math

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


def grow_expansion(partials, value):
    """Add ``value`` into ``partials`` in place, keeping the sum exact.

    Invariant: sum(partials) as an exact real number equals the exact sum
    of every value ever grown into the list.  Components stay
    non-overlapping, so the list stays short (typically 1-3 entries).
    """
    x = value
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class VectorExpansion:
    """Per-coordinate exact accumulator for sums of float64 vectors.

    ``add`` folds one vector into the running sum, ``merge`` folds in another
    accumulator (both exact), and ``rounded`` rounds each coordinate once.
    """

    def __init__(self, dim):
        self.dim = dim
        self._partials = [[] for _ in range(dim)]

    def add(self, vec):
        for j, v in enumerate(vec.tolist()):
            if v:
                grow_expansion(self._partials[j], v)

    def merge(self, other):
        if other.dim != self.dim:
            raise ValueError(
                f"dimension mismatch: cannot merge expansion of dim {other.dim} "
                f"into dim {self.dim}"
            )
        for mine, theirs in zip(self._partials, other._partials):
            for v in theirs:
                grow_expansion(mine, v)

    def rounded(self):
        return np.fromiter(
            (math.fsum(p) for p in self._partials), dtype=np.float64, count=self.dim
        )
