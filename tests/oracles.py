"""Per-row definitions and earlier implementations of the package's exact
kernels, kept as oracles.

:func:`residual`, :func:`reflection_vector`, :func:`orthogonal_projection`,
:func:`positive_slice` and :func:`eps_satisfies` are the paper's per-row
operators, written over ``sys.b`` and ``exact_dot``; the package computes
them only inside its one row pass, ``modap.geometry.violated_slices``.

The row loops are the package's as they were before the float64 filter:
the filtered row pass in ``modap.geometry`` and the translated snapshots of
``modap.dynamics`` must reproduce them bit for bit.  :func:`row_pass`
combines two of them as the counterpart of the one pass,
``modap.geometry.violated_slices``; it and :func:`translate` take the same
arguments as their library counterparts, so a test can patch them in where
the program looks the name up.  :func:`bounds` reads a snapshot's bounds
through :func:`translate`.

:func:`vector_norms` is the loop's norm as it was before the stacked
sum: one ``math.fsum`` of squares per vector.  The solver must reproduce
it bit for bit, and takes the name ``modap.solver.vector_norms``.

``grow_expansion`` and ``VectorExpansion`` are the hand-written expansion
arithmetic (Shewchuk, DCG 18, 1997) that summed the slices before
``modap.summation.column_sums``; the column sums must equal their rounded
results bit for bit.
"""

import math

import numpy as np

from modap import InequalitySystem
from modap.summation import exact_dot


def residual(sys, i, x):
    return exact_dot(sys.a[i], x) - float(sys.b[i])


def reflection_vector(sys, i, x):
    return (residual(sys, i, x) / float(sys.row_norms_sq[i])) * sys.a[i]


def orthogonal_projection(sys, i, x):
    return x - reflection_vector(sys, i, x)


def positive_slice(sys, i, x):
    """The reflection vector of a violated row, the zero vector otherwise."""
    return reflection_vector(sys, i, x) if residual(sys, i, x) > 0.0 else np.zeros(sys.n)


def eps_satisfies(sys, i, x, eps):
    r = residual(sys, i, x)
    return r <= 0.0 or r / float(sys.row_norms[i]) < eps


def _residuals(sys, x, start, stop):
    """``(i, residual, a_i)`` for rows [start, stop), reading the dense
    matrix once."""
    a, b = sys.a, sys.b
    for i in range(start, stop):
        yield i, exact_dot(a[i], x) - float(b[i]), a[i]


def violated_slices(sys, x, start=0, stop=None):
    if stop is None:
        stop = sys.m
    out = []
    for i, r, row in _residuals(sys, x, start, stop):
        if r > 0.0:
            out.append((r / float(sys.row_norms_sq[i])) * row)
    return out


def eps_membership(sys, x, eps):
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = np.asarray(x, dtype=np.float64)
    for i, r, _ in _residuals(sys, x, 0, sys.m):
        if r > 0.0 and r / float(sys.row_norms[i]) >= eps:
            return False
    return True


def max_relative_violation(sys, x, start=0, stop=None):
    if stop is None:
        stop = sys.m
    x = np.asarray(x, dtype=np.float64)
    worst = 0.0
    for i, r, _ in _residuals(sys, x, start, stop):
        if r > 0.0:
            v = r / float(sys.row_norms[i])
            if v > worst:
                worst = v
    return worst


def row_pass(sys, x, start=0, stop=None, point=None):
    """:func:`violated_slices` and :func:`max_relative_violation` together,
    as the package's row pass gives them; ``point``, the package's prepared
    point, is not read."""
    slices = violated_slices(sys, x, start, stop)
    return (np.array(slices).reshape(len(slices), sys.n),
            max_relative_violation(sys, x, start, stop))


def translate(sys, v):
    v = np.asarray(v, dtype=np.float64)
    a, b = sys.a, sys.b
    new_b = np.fromiter(
        (float(b[i]) + exact_dot(a[i], v) for i in range(sys.m)),
        dtype=np.float64,
        count=sys.m,
    )
    return InequalitySystem(a, new_b)


def bounds(snap):
    """The bounds of a system, or those :func:`translate` builds for a
    translated snapshot ``(system, shift)``, which the package never
    builds."""
    if isinstance(snap, InequalitySystem):
        return snap.b
    return translate(snap.system, snap.shift).b


def dense_row_pass(a, b, x, v=None):
    """The row pass over a dense matrix ``a`` as given, ``-0.0`` entries
    included, before any storage: residuals ``fsum(a_i * x) - b_i``, with
    the bound ``b_i + fsum(a_i * v)`` for a translation by v; the slices
    ``(r_i / fsum(a_i * a_i)) a_i`` of the violated rows stacked ``(h, n)``,
    and their largest ``r_i / sqrt(fsum(a_i * a_i))`` (0 when h = 0)."""
    a = np.asarray(a, dtype=np.float64)
    slices, worst = [], 0.0
    for row, bound in zip(a, np.asarray(b, dtype=np.float64).tolist()):
        if v is not None:
            bound += exact_dot(row, v)
        r = exact_dot(row, x) - bound
        if r > 0.0:
            norm_sq = exact_dot(row, row)
            slices.append((r / norm_sq) * row)
            worst = max(worst, r / math.sqrt(norm_sq))
    return np.array(slices).reshape(len(slices), a.shape[1]), worst


def vector_norms(vs):
    """The norm of each row of ``vs``, as a list of floats: ``sqrt(fsum(v * v))`` when that sum
    is normal, else v scaled by ``2^-k`` with ``2^(k-1) <= max|v| < 2^k``
    and the norm scaled back; 0, inf and nan where the sum is."""
    norms = []
    for v in np.asarray(vs, dtype=np.float64):
        with np.errstate(over="ignore"):
            try:
                s = math.fsum((v * v).tolist())
            except OverflowError:
                s = math.inf
        big = float(np.max(np.abs(v))) if v.size else 0.0  # nan if v holds one
        if 2.0 ** -1022 <= s < math.inf or big == 0.0 or not math.isfinite(big):
            norms.append(math.sqrt(s))
            continue
        k = math.frexp(big)[1]
        scaled = [math.ldexp(c, -k) for c in v.tolist()]
        try:
            norms.append(math.ldexp(math.sqrt(math.fsum(c * c for c in scaled)), k))
        except OverflowError:
            norms.append(math.inf)
    return norms


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
