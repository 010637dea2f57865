"""Pointwise operators over dense systems of linear inequalities.

A system is ``A x <= b`` with m rows in R^n.  The operators here are the
building blocks of the projection solvers: signed residuals, reflection
vectors, orthogonal projections onto the bounding hyperplanes, positive
slices of reflections, the averaged violation direction (pseudo-projection)
and its fixed-length rescaling, and tolerance-based membership tests.

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

    e_i = (n + 8) 2^-52 (N_i ||x|| + s_i + |t_i|) + (n + 8) 2^-1022,

where ``N_i >= ||a_i||`` is a rigorous upper bound derived from the cached
squared norm (so it stays valid for a row like ``[1e-160]`` whose squared
norm has underflowed), ``||x||`` is bounded the same way, and ``s_i`` is 0
for a system with an explicit right-hand side and ``|b_i| + N_i ||v||`` for
one translated by v (see :func:`modap.dynamics.translate`).  The last,
underflow, term is dropped when it cannot arise: x = 0 on an untranslated
system makes every product, and so t_i, exact.  ``t_i <= -e_i`` proves the
exact residual is at most 0, so the row is satisfied and skipped.  Every
other row (violated, near its hyperplane, or with an estimate or bound that
is not finite) goes through the exact path: its elementwise products, taken
for all such rows at once, and one ``math.fsum`` per row, the bits of
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
from dataclasses import dataclass

import numpy as np

from .summation import column_sums, exact_dot

__all__ = [
    "FeasiblePointError",
    "InequalitySystem",
    "SliceResult",
    "residual",
    "reflection_vector",
    "orthogonal_projection",
    "positive_slice",
    "pseudo_projection",
    "fixed_step_direction",
    "eps_satisfies",
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


class FeasiblePointError(ValueError):
    """Raised when an operator that needs a violated inequality is handed a
    point that already satisfies the whole system."""


class InequalitySystem:
    """Dense inequality system ``A x <= b`` with cached squared row norms.

    Every coefficient row must be non-zero, every coefficient and bound
    finite.  Instances are treated as immutable: translation and
    right-hand-side updates go through :meth:`with_rhs` and
    :func:`modap.dynamics.translate`, which share the coefficient matrix
    and the cached norms instead of recomputing them.

    A translated system holds ``b' = b + A v`` implicitly: :meth:`rhs`
    computes one exact bound on demand, and the first read of :attr:`b`
    builds the whole vector, with the same bits either way.
    """

    __slots__ = ("a", "row_norms_sq", "row_norms", "_norm_bounds", "_b",
                 "_base_b", "_shift", "_b_estimate", "_slack")

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
        norms_sq = np.fromiter(
            (_squared_norm(row) for row in a), dtype=np.float64, count=m
        )
        for i in np.flatnonzero(~np.isfinite(norms_sq)).tolist():
            if not np.isfinite(a[i]).all():
                raise ValueError(f"row {i} has a non-finite coefficient")
            raise ValueError(f"row {i}: its squared norm overflows float64")
        for i, v in enumerate(norms_sq.tolist()):
            if v == 0.0:
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

    def _set_rhs(self, b, estimate=None, base_b=None, shift=None, slack=None) -> None:
        self._b = b
        self._b_estimate = b if estimate is None else estimate
        self._base_b = base_b
        self._shift = shift
        self._slack = slack

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
            b = np.fromiter((self.rhs(i) for i in range(self.m)),
                            dtype=np.float64, count=self.m)
            self._b = b
        return b

    def rhs(self, i: int) -> float:
        """Bound of row i, exact: for a system translated by v it is
        ``b_i + <a_i, v>`` with the inner product exactly rounded.

        A pure function of the (immutable) system, so threads sharing a
        system may call it at the same time.
        """
        b = self._b
        if b is not None:
            return float(b[i])
        return float(self._base_b[i]) + exact_dot(self.a[i], self._shift)

    def with_rhs(self, b) -> "InequalitySystem":
        """New system with the same rows and a fresh right-hand side.

        The coefficient matrix and cached norms are shared, not copied; rows
        never change through this path so the cache stays valid.
        """
        b = np.array(b, dtype=np.float64).reshape(-1)
        if b.shape != (self.m,):
            raise ValueError(
                f"right-hand side has length {b.shape[0]}, expected m = {self.m}"
            )
        _check_finite_rhs(b)
        obj = self._sharing_rows()
        obj._set_rhs(b)
        return obj

    def _translated(self, v: np.ndarray) -> "InequalitySystem":
        """System with bounds ``b + A v`` held implicitly (see
        :func:`modap.dynamics.translate`, which validates v).

        One matrix-vector product gives the filter's estimate of the new
        bounds; its error, and that of the exact bounds :meth:`rhs` will
        compute, is covered by the per-row slack ``|b_i| + N_i ||v||``.
        Translating a translated system first builds its exact bounds.
        """
        base_b = self.b
        obj = self._sharing_rows()
        slack = np.abs(base_b) + self._norm_bounds * _norm_bound(v)
        obj._set_rhs(None, base_b + self.a @ v, base_b, v.copy(), slack)
        return obj

    def __repr__(self) -> str:
        return f"InequalitySystem(m={self.m}, n={self.n})"


def _check_finite_rhs(b: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        raise ValueError(f"bound of row {int(bad[0])} is not finite: {float(b[bad[0]])!r}")


def _squared_norm(row: np.ndarray) -> float:
    try:
        return exact_dot(row, row)
    except OverflowError:  # the squares are non-negative: the sum overflows
        return math.inf


@dataclass
class SliceResult:
    """Positive slice of one row's reflection vector plus its violation flag.

    ``violated`` is 1 iff the row's residual is strictly positive, which is
    exactly when ``direction`` is non-zero.
    """

    direction: np.ndarray
    violated: int


def _as_point(x, n: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValueError(
            f"dimension mismatch: expected a point of length {n}, got shape {arr.shape}"
        )
    return arr


def _check_row(sys: InequalitySystem, i: int) -> None:
    if not 0 <= i < sys.m:
        raise IndexError(f"row index {i} out of range for system with m = {sys.m}")


def _exact_residual(sys: InequalitySystem, i: int, x: np.ndarray) -> float:
    return exact_dot(sys.a[i], x) - sys.rhs(i)


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
    with np.errstate(all="ignore"):
        t = sys.a[start:stop] @ x
        t -= sys._b_estimate[start:stop]
        scale = sys._norm_bounds[start:stop] * xnorm
        if sys._slack is not None:
            scale += sys._slack[start:stop]
        scale += np.abs(t)
        e = coef * scale
        if xnorm or sys._slack is not None:
            e += (sys.n + 8) * _MIN_NORMAL
        settled = (t <= -e) & (e < _FILTER_LIMIT)
    return np.flatnonzero(~settled) + start


def residual(sys: InequalitySystem, i: int, x) -> float:
    """Signed residual ``<a_i, x> - b_i``; positive iff x violates row i."""
    _check_row(sys, i)
    x = _as_point(x, sys.n)
    return _exact_residual(sys, i, x)


def reflection_vector(sys: InequalitySystem, i: int, x) -> np.ndarray:
    """Reflection of x with respect to hyperplane i.

    ``rho = ((<a_i, x> - b_i) / ||a_i||^2) a_i``; subtracting it from x lands
    on the hyperplane.
    """
    _check_row(sys, i)
    x = _as_point(x, sys.n)
    r = _exact_residual(sys, i, x)
    return (r / float(sys.row_norms_sq[i])) * sys.a[i]


def orthogonal_projection(sys: InequalitySystem, i: int, x) -> np.ndarray:
    """Orthogonal projection of x onto hyperplane i: ``x - rho``."""
    x = _as_point(x, sys.n)
    return x - reflection_vector(sys, i, x)


def positive_slice(sys: InequalitySystem, i: int, x) -> SliceResult:
    """Positive slice of the reflection vector: the reflection when row i is
    violated, the zero vector otherwise."""
    _check_row(sys, i)
    x = _as_point(x, sys.n)
    r = _exact_residual(sys, i, x)
    if r > 0.0:
        return SliceResult((r / float(sys.row_norms_sq[i])) * sys.a[i], 1)
    return SliceResult(np.zeros(sys.n), 0)


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
        px = (a * x).tolist()
        if sys._b is not None:
            r = [math.fsum(p) - b for p, b in zip(px, sys._b[rows].tolist())]
        else:  # the exact bound b_i + <a_i, v> of InequalitySystem.rhs
            pv = (a * sys._shift).tolist()
            r = [math.fsum(p) - (b + math.fsum(q))
                 for p, q, b in zip(px, pv, sys._base_b[rows].tolist())]
        r = np.array(r, dtype=np.float64)
        hit = r > 0.0
        r, rows = r[hit], rows[hit]
        block = (r / sys.row_norms_sq[rows])[:, None] * a[hit]
        worst = float((r / sys.row_norms[rows]).max()) if r.size else 0.0
    return block, worst


def pseudo_projection(sys: InequalitySystem, x) -> tuple[np.ndarray, int]:
    """Averaged violation direction and the count of violated rows.

    Returns ``(sum of positive slices / h, h)`` where h is the number of
    violated rows.  When every row is satisfied (h = 0) the direction is the
    zero vector by convention; callers treat that as "feasible, stop".
    """
    block, _ = violated_slices(sys, _as_point(x, sys.n))
    h = block.shape[0]
    if h == 0:
        return np.zeros(sys.n), 0
    return column_sums(block) / h, h


def fixed_step_direction(sys: InequalitySystem, x, step_length: float) -> np.ndarray:
    """Averaged violation direction rescaled to constant length.

    Returns ``step_length * phi / ||phi||`` where phi is the pseudo-projection
    direction.  The fixed length is what keeps the iteration moving at full
    speed near the boundary of a moving feasible region.

    Raises :class:`FeasiblePointError` when x satisfies every row; check the
    violated count first.
    """
    if step_length <= 0:
        raise ValueError(f"step_length must be positive, got {step_length}")
    direction, h = pseudo_projection(sys, x)
    if h == 0:
        raise FeasiblePointError(
            "point satisfies every inequality; the fixed-length step direction "
            "is undefined"
        )
    return _rescaled(direction, vector_norm(direction), step_length)


def _rescaled(v: np.ndarray, norm: float, length: float) -> np.ndarray:
    """``(length / norm) * v``, or ``length * (v / norm)`` when a tiny norm
    makes the factor overflow, so that v keeps a finite length."""
    factor = length / norm
    return factor * v if factor < math.inf else length * (v / norm)


def eps_satisfies(sys: InequalitySystem, i: int, x, eps: float) -> bool:
    """True iff x satisfies row i, or violates it by less than ``eps`` in
    normalized distance ``|<a_i,x> - b_i| / ||a_i||``."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    r = residual(sys, i, x)
    return r <= 0.0 or r / float(sys.row_norms[i]) < eps


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
