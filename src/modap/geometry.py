"""Dense systems of linear inequalities and the one row pass over them.

A system is ``A x <= b`` with m rows in R^n.  :class:`InequalitySystem`
holds the rows, their cached norms and the bounds, given or translated.
:func:`violated_slices` evaluates every row at a point x in one pass: it
returns the positive slices of the violated rows, i.e. the reflection
vectors ``((<a_i, x> - b_i) / ||a_i||^2) a_i`` of the rows whose residual
is positive, and the largest normalized violation.  The solvers average
the slices into the step direction (the pseudo-projection) and compare the
maximum with eps (the membership test).

Conventions:
  * points and directions are plain 1-D float64 numpy arrays;
  * a row is *violated* by x iff its residual <a_i, x> - b_i is strictly
    positive (equality counts as satisfied);
  * squared row norms are computed once per system and cached, never per
    call;
  * every row-level reduction goes through :mod:`modap.summation`, so all
    results are independent of evaluation order and of how the row list is
    partitioned across workers.

Filtered row passes.  :func:`violated_slices` is the one row pass of an
iteration: it returns the violated rows' slices and the largest normalized
violation together, so the step, the membership test and the trace read the
same evaluation; :func:`eps_membership` and :func:`max_relative_violation`
are thin wrappers over it.  It starts with one float64 matrix-vector product
``t = A[start:stop] @ x - b`` and a forward error bound per row,

    e_i = (n + 8) 2^-52 (N_i ||x|| + |t_i|) + (n + 8) 2^-1022,

where ``N_i >= ||a_i||`` is a rigorous upper bound derived from the cached
squared norm (so it stays valid for a row like ``[1e-160]`` whose squared
norm has underflowed) and ``||x||`` is bounded the same way.  The last,
underflow, term is dropped when it cannot arise: x = 0 on an untranslated
system makes every product, and so t_i, exact.  A system translated by v (see
:func:`modap.dynamics.translate`) keeps its base bounds b and v, and the
same one product estimates its residual as ``t = A[start:stop] @ (x - v) - b``
with

    e_i = (n + 8) 2^-52 (N_i (||x|| + ||v||) + |b_i| + |t_i|) + (n + 8) 2^-1022.

This is rigorous because ``fl(x - v)`` is within ``2^-53 |x - v|`` of
``x - v`` componentwise (exactly equal where the difference is subnormal),
so it adds at most ``2^-53 N_i (||x|| + ||v||)`` to the dot product's own
error, and because the exact path compares against the rounded bound
``b_i + <a_i, v>``, which lies within ``2^-52 (|b_i| + N_i ||v||)`` of the
exact one; the factor ``n + 8`` leaves room for both.  An ``x - v`` that
overflows gives a non-finite t_i or e_i.  ``t_i <= -e_i`` proves the
exact residual is at most 0, so the row is satisfied and skipped.  Every
other row (violated, near its hyperplane, or with an estimate or bound that
is not finite) goes through the exact path: its elementwise products, taken
for all such rows at once, and their exactly rounded row sums
(:func:`~modap.summation.row_sums`, vectorised over the block), the bits of
:func:`~modap.summation.exact_dot`.  The bound only decides which rows may
be skipped; every value the pass returns (slices, the maximum violation,
and so the membership decision) comes from the exact path, bit for bit.
This is a floating-point filter in the sense of Shewchuk (DCG 18, 1997),
with the dot-product error bound of Ogita, Rump and Oishi (SISC 26(6),
2005); it assumes IEEE-754 binary64 with subnormal inputs kept, which numpy
and CPython provide.
"""

from __future__ import annotations

import math

import numpy as np

from .summation import exact_dot, row_sums

__all__ = [
    "InequalitySystem",
    "eps_membership",
    "max_relative_violation",
    "vector_norm",
]

_TWO_U = 2.0 ** -52  # twice the unit roundoff of float64
_MIN_NORMAL = 2.0 ** -1022
# a bound at or above this leaves the row to the exact path, which then
# behaves (overflow included) exactly as without the filter
_FILTER_LIMIT = 2.0 ** 960
# relative slack on computed norm bounds; their own rounding is below 5 ulp
_NORM_SLACK = 1.0 + 2.0 ** -48
# row blocks of whole-matrix sums (squared norms, translated bounds) hold at
# most this many elements, so their temporaries stay near 0.5 MB each
_BLOCK_ELEMENTS = 2 ** 16


class InequalitySystem:
    """Dense inequality system ``A x <= b`` with cached squared row norms.

    Every coefficient row must be non-zero, every coefficient and bound
    finite.  Instances are treated as immutable: a translation goes through
    :func:`modap.dynamics.translate`, which shares the coefficient matrix
    and the cached norms instead of recomputing them.

    A translated system holds ``b' = b + A v`` implicitly, as the base
    bounds b, v and a norm bound of v: a row pass computes the exact bounds
    of the rows it evaluates exactly, and the first read of :attr:`b`
    builds the whole vector, with the same bits either way.  A bound that
    overflows float64 raises ``OverflowError`` naming its row.
    """

    __slots__ = ("a", "row_norms_sq", "row_norms", "_norm_bounds", "_b",
                 "_base_b", "_shift", "_shift_norm")

    def __init__(self, a, b):
        a = np.array(a, dtype=np.float64, order="C")
        b = np.array(b, dtype=np.float64).reshape(-1)
        if a.ndim != 2:
            raise ValueError(f"coefficient array must be 2-D, got shape {a.shape}")
        m, n = a.shape
        if m < 1 or n < 1:
            raise ValueError(f"system must have m >= 1 rows and n >= 1 columns, got {a.shape}")
        if b.shape != (m,):
            raise ValueError(
                f"right-hand side has length {b.shape[0]}, expected m = {m}"
            )
        _check_finite_rhs(b)
        norms_sq = np.empty(m)
        for rows in _row_blocks(m, n):
            part = a[rows]
            with np.errstate(over="ignore"):  # an infinite square is reported below
                squares = part * part
            try:
                norms_sq[rows] = row_sums(squares)
            except OverflowError:  # the squares are non-negative: a sum overflows
                norms_sq[rows] = [_squared_norm(row) for row in part]
        for i in np.flatnonzero(~np.isfinite(norms_sq)).tolist():
            if not np.isfinite(a[i]).all():
                raise ValueError(f"row {i} has a non-finite coefficient")
            raise ValueError(f"row {i}: its squared norm overflows float64")
        for i in np.flatnonzero(norms_sq == 0.0).tolist():
            if a[i].any():
                raise ValueError(f"row {i}: its squared norm underflows float64")
            raise ValueError(
                f"row {i} is the zero vector; every inequality needs a non-zero "
                "coefficient row"
            )
        self.a = a
        self.row_norms_sq = norms_sq
        self.row_norms = np.sqrt(norms_sq)
        # ||a_i||^2 <= (norms_sq + (n + 1) 2^-1022) / (1 - u)^2: each square
        # and their sum round once, losing at most 2^-1022 to underflow
        self._norm_bounds = np.sqrt(norms_sq + (n + 1) * _MIN_NORMAL) * _NORM_SLACK
        self._set_rhs(b)

    def _set_rhs(self, b, base_b=None, shift=None) -> None:
        self._b = b
        self._base_b = base_b
        self._shift = shift
        self._shift_norm = None if shift is None else _norm_bound(shift)

    def _sharing_rows(self) -> "InequalitySystem":
        obj = object.__new__(InequalitySystem)
        obj.a = self.a
        obj.row_norms_sq = self.row_norms_sq
        obj.row_norms = self.row_norms
        obj._norm_bounds = self._norm_bounds
        return obj

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def b(self) -> np.ndarray:
        """The right-hand side; built row by row on first read for a
        translated system."""
        b = self._b
        if b is None:
            b = np.empty(self.m)
            for rows in _row_blocks(self.m, self.n):
                b[rows] = self._exact_bounds(range(self.m)[rows])
            self._b = b
        return b

    def _exact_bounds(self, rows) -> np.ndarray:
        """``b_i + <a_i, v>`` of a translated system for ``rows`` (a range
        or an index array), the inner product exactly rounded."""
        what = "its translated bound"
        with np.errstate(over="ignore"):
            b = self._base_b[rows] + _exact_sums(self.a[rows] * self._shift, rows, what)
        bad = np.flatnonzero(~np.isfinite(b))
        if bad.size:
            raise OverflowError(f"row {rows[bad[0]]}: {what} overflows float64")
        return b

    def _translated(self, v: np.ndarray) -> "InequalitySystem":
        """System with bounds ``b + A v`` held implicitly (see
        :func:`modap.dynamics.translate`, which validates v).

        O(n): it keeps the base bounds, a copy of v and a norm bound of v,
        which the filter reads through ``A (x - v) - b`` (see the module
        docstring).  Translating a translated system first builds its exact
        bounds.
        """
        obj = self._sharing_rows()
        obj._set_rhs(None, self.b, v.copy())
        return obj

    def __repr__(self) -> str:
        return f"InequalitySystem(m={self.m}, n={self.n})"


def _check_finite_rhs(b: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        raise ValueError(f"bound of row {int(bad[0])} is not finite: {float(b[bad[0]])!r}")


def _row_blocks(m: int, n: int):
    """Consecutive row slices of an ``(m, n)`` matrix, each of at most
    :data:`_BLOCK_ELEMENTS` elements (one row at least), so that a
    whole-matrix sum needs only small temporaries."""
    step = max(1, _BLOCK_ELEMENTS // n)
    return [slice(lo, lo + step) for lo in range(0, m, step)]


def _exact_sums(products: np.ndarray, rows, what: str) -> np.ndarray:
    """:func:`~modap.summation.row_sums` of the products of ``rows``.  A sum
    that overflows (``OverflowError``), or products that overflow with both
    signs (``ValueError``), raise the same type with a message naming the row."""
    try:
        return row_sums(products)
    except (OverflowError, ValueError):
        for i, p in zip(rows, products):
            try:
                math.fsum(p.tolist())
            except (OverflowError, ValueError) as exc:
                raise type(exc)(f"row {i}: {what} overflows float64") from exc
        raise


def _squared_norm(row: np.ndarray) -> float:
    try:
        return exact_dot(row, row)
    except OverflowError:  # the squares are non-negative: the sum overflows
        return math.inf


def _as_point(x, n: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValueError(
            f"dimension mismatch: expected a point of length {n}, got shape {arr.shape}"
        )
    return arr


def _norm_bound(v: np.ndarray) -> float:
    """Upper bound on ``||v||``; 0 only for the zero vector.  ``math.hypot``
    is within one ulp (2^-1074 for a subnormal result) and does not overflow
    or underflow on the way."""
    h = math.hypot(*v.tolist())
    return h * _NORM_SLACK + 2.0 ** -1074 if h else 0.0


def _unsettled_rows(sys: InequalitySystem, x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows in [start, stop), ascending, that the float64 filter cannot prove
    satisfied (see the module docstring for the bound)."""
    xnorm = _norm_bound(x)
    coef = (sys.n + 8) * _TWO_U
    shift = sys._shift
    with np.errstate(all="ignore"):
        if shift is None:
            t = sys.a[start:stop] @ x
            t -= sys._b[start:stop]
            scale = sys._norm_bounds[start:stop] * xnorm
        else:
            base_b = sys._base_b[start:stop]
            t = sys.a[start:stop] @ (x - shift)
            t -= base_b
            scale = sys._norm_bounds[start:stop] * (xnorm + sys._shift_norm)
            scale += np.abs(base_b)
        scale += np.abs(t)
        e = coef * scale
        if xnorm or shift is not None:
            e += (sys.n + 8) * _MIN_NORMAL
        settled = (t <= -e) & (e < _FILTER_LIMIT)
    return np.flatnonzero(~settled) + start


def violated_slices(
    sys: InequalitySystem, x: np.ndarray, start: int = 0, stop: int | None = None
) -> tuple[np.ndarray, float]:
    """One filtered pass over rows [start, stop): the violated rows' slice
    vectors stacked ``(h, n)`` in ascending row order, and the largest
    normalized violation ``r_i / ||a_i||`` among them (0 when h = 0).

    Internal kernel shared by the sequential solver and the worker threads;
    both must evaluate each row identically for parallel runs to reproduce
    sequential ones bit for bit.  A maximum does not depend on order, so
    the maxima of covering partial passes give the full pass's bits.
    """
    if stop is None:
        stop = sys.m
    rows = _unsettled_rows(sys, x, start, stop)
    a = sys.a[rows]
    with np.errstate(all="ignore"):  # a non-finite slice fails the step's check
        r = _exact_sums(a * x, rows, "its residual")
        r -= sys._b[rows] if sys._b is not None else sys._exact_bounds(rows)
        hit = r > 0.0
        r, rows = r[hit], rows[hit]
        block = (r / sys.row_norms_sq[rows])[:, None] * a[hit]
        worst = float((r / sys.row_norms[rows]).max()) if r.size else 0.0
    return block, worst


def _rescaled(v: np.ndarray, norm: float, length: float) -> np.ndarray:
    """``(length / norm) * v``, or ``length * (v / norm)`` when a tiny norm
    makes the factor overflow, so that v keeps a finite length."""
    factor = length / norm
    return factor * v if factor < math.inf else length * (v / norm)


def eps_membership(sys: InequalitySystem, x, eps: float) -> bool:
    """True iff every row is satisfied or violated by less than ``eps``."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return max_relative_violation(sys, x) < eps


def max_relative_violation(sys: InequalitySystem, x) -> float:
    """Largest normalized positive residual, 0 for a feasible point.

    Row-scale invariant: rescaling a row and its bound by the same positive
    factor leaves the value unchanged.
    """
    return violated_slices(sys, _as_point(x, sys.n))[1]


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm via the exactly rounded self inner product.

    When that sum of squares is 0, subnormal or overflows, v is first
    scaled by a power of two, so a non-zero vector never gets norm 0, nor
    inf unless its norm exceeds the float64 range.  In the normal range the
    result keeps its bits: ``sqrt(exact_dot(v, v))``.
    """
    s = _squared_norm(v)
    if _MIN_NORMAL <= s < math.inf:
        return math.sqrt(s)
    big = float(np.max(np.abs(v))) if v.size else 0.0
    if big == 0.0 or not math.isfinite(big):
        return math.sqrt(s)
    k = math.frexp(big)[1]
    scaled = np.ldexp(v, -k)
    try:
        return math.ldexp(math.sqrt(exact_dot(scaled, scaled)), k)
    except OverflowError:  # the norm itself exceeds the float64 range
        return math.inf
