"""Systems of linear inequalities, stored as sparse rows, and the one row
pass over them.

A system is ``A x <= b`` with m rows in R^n.  :class:`InequalitySystem`
stores the coefficient rows once, in compressed sparse row (CSR) form:
row i's non-zero coefficients are ``data[indptr[i]:indptr[i + 1]]``, in the
strictly ascending columns ``indices[indptr[i]:indptr[i + 1]]``.  Exact
zeros, ``+0.0`` and ``-0.0``, are not stored, so every kernel below reads
only the stored entries and costs O(nnz) rather than O(m n).  One method,
:meth:`InequalitySystem._gather`, reads a row set, in one of two forms.
When every row from its first to its last is fully stored (``nnz_i = n``),
the rows are one ``(h, n)`` block: a 2-D view of ``data`` (not a second
copy) for consecutive rows, so a dense input keeps its BLAS product and its
dense row block.  Any other row set is read as its CSR segments, which
:func:`~modap.summation.row_sums` sums segment by segment, so no row is
padded.  The system also holds the rows' cached norms and the bounds, given
or translated.  :func:`violated_slices` evaluates every row at a point x
in one pass: it returns the positive slices of the violated rows, i.e. the
reflection vectors ``((<a_i, x> - b_i) / ||a_i||^2) a_i`` of the rows
whose residual is positive, and the largest normalized violation.  The
solvers average the slices into the step direction (the pseudo-projection)
and compare the maximum with eps (the membership test).

Conventions:
  * points and directions are plain 1-D float64 numpy arrays, and so are
    the slices: a dense ``(h, n)`` block;
  * a row is *violated* by x iff its residual <a_i, x> - b_i is strictly
    positive (equality counts as satisfied);
  * squared row norms are computed once per system and cached, never per
    call;
  * every row-level reduction goes through :mod:`modap.summation`, so all
    results are independent of evaluation order and of how the row list is
    partitioned across workers.  A sum over the stored entries has the bits
    of the sum over the whole dense row: a zero addend does not change an
    exactly rounded sum, and every zero sum is ``+0.0``.

Filtered row passes.  :func:`violated_slices` is the one row pass of an
iteration: it returns the violated rows' slices and the largest normalized
violation together, so the step, the membership test and the trace read the
same evaluation; :func:`eps_membership` and :func:`max_relative_violation`
are thin wrappers over it.  It starts with one float64 pass over the stored
entries of rows [start, stop), ``t = A[start:stop] x - b`` (one
``np.add.reduceat`` of the entrywise products of the segments, or one
matrix-vector product on a block), and a forward error bound per row,

    e_i = (n + 8) 2^-52 (N_i ||x|| + |t_i|) + (n + 8) 2^-1022,

where ``N_i >= ||a_i||`` is a rigorous upper bound derived from the cached
squared norm (so it stays valid for a row like ``[1e-160]`` whose squared
norm has underflowed) and ``||x||`` is bounded from one float64 ``x @ x``,
widened by a proven slack for its rounding, or by ``math.hypot`` where that
sum underflows or overflows (:func:`_norm_bound`).  The row sums
``nnz_i <= n`` products, so ``n + 8`` bounds its rounding whichever the
path.  The last, underflow, term is dropped when it cannot arise: x = 0 on
an untranslated system makes every product, and so t_i, exact.  A system
translated by v (see :func:`modap.dynamics.translate`) keeps its base
bounds b and v, and the same one pass estimates its residual as
``t = A[start:stop] (x - v) - b`` with

    e_i = (n + 8) 2^-52 (N_i (||x|| + ||v||) + |b_i| + |t_i|) + (n + 8) 2^-1022.

This is rigorous because ``fl(x - v)`` is within ``2^-53 |x - v|`` of
``x - v`` componentwise (exactly equal where the difference is subnormal),
so it adds at most ``2^-53 N_i (||x|| + ||v||)`` to the dot product's own
error, and because the exact path compares against the rounded bound
``b_i + <a_i, v>``, which lies within ``2^-52 (|b_i| + N_i ||v||)`` of the
exact one; the factor ``n + 8`` leaves room for both.  An ``x - v`` that
overflows gives a non-finite t_i or e_i.  ``t_i <= -e_i`` with ``e_i <
2^960`` proves the exact residual is at most 0, so the row is satisfied and
skipped.  The pass tests ``fl(t_i + e_i) <= 0`` instead, one addition in
place where ``-e_i`` would take a new array.  For finite t_i and e_i the
two tests agree: rounding is monotone and keeps 0, and an exact sum of two
floats that is not 0 does not round to 0 (subnormals are kept), so
``fl(t_i + e_i) <= 0`` iff ``t_i + e_i <= 0``, a sum that overflows
included, since it keeps its sign.  e_i holds ``|t_i|``, so an infinite or
NaN t_i makes e_i infinite or NaN, and the row fails ``e_i < 2^960``.
Every other row (violated, near its hyperplane, or with an estimate or
bound that is not finite) goes through the exact path: the products of its
stored entries, taken for all such rows at once, and their exactly rounded row
sums (:func:`~modap.summation.row_sums`, vectorised over the block), the
bits of :func:`~modap.summation.exact_dot` over the dense row.  On a
translated system the products with x and with v are stacked into one
block or segment array, so the residuals and the exact bounds take one
sum; consecutive rows, a single row among them, are read as views of
``data``, without a gather, and the slices of a block multiply it as it is
stored.  The bound only decides which rows may be skipped; every value the
pass returns (slices, the maximum violation, and so the membership
decision) comes from the exact path, bit for bit.  This is a floating-point
filter in the sense of Shewchuk (DCG 18, 1997), with the dot-product error
bound of Ogita, Rump and Oishi (SISC 26(6), 2005); it assumes IEEE-754
binary64 with subnormal inputs kept, which numpy and CPython provide.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .summation import exact_dot, row_sums

__all__ = [
    "InequalitySystem",
    "eps_membership",
    "max_relative_violation",
    "vector_norm",
    "vector_norms",
]

_TWO_U = 2.0 ** -52  # twice the unit roundoff of float64
_MIN_NORMAL = 2.0 ** -1022
# a bound at or above this leaves the row to the exact path, which then
# behaves (overflow included) exactly as without the filter
_FILTER_LIMIT = 2.0 ** 960
# relative slack on computed norm bounds; their own rounding is below 5 ulp
_NORM_SLACK = 1.0 + 2.0 ** -48
# _norm_bound takes sqrt(v @ v) when v @ v lies in this range
_SQUARE_MIN = 2.0 ** -900
_SQUARE_MAX = 2.0 ** 900
_BOUND = "its translated bound"
# many-row sums (squared norms, translated bounds) take consecutive rows
# storing at most this many entries at a time, so their temporaries stay
# near 0.5 MB each
_BLOCK_ELEMENTS = 2 ** 16


class InequalitySystem:
    """Inequality system ``A x <= b`` with its rows stored once as CSR
    arrays and cached squared row norms.

    ``InequalitySystem(a, b)`` takes a dense ``(m, n)`` array-like;
    ``InequalitySystem((indptr, indices, data), b, n=n)`` takes the CSR
    rows of an m x n matrix (see the module docstring), which must store no
    zero.  Either way the system keeps ``indptr`` and ``indices`` as intp
    and ``data`` as float64, without exact zeros.  :attr:`a` builds the
    dense matrix on each read; set-up and the row pass never do.

    Every coefficient row must be non-zero, every coefficient and bound
    finite.  Instances are treated as immutable: a translation goes through
    :func:`modap.dynamics.translate`, which shares the CSR arrays and the
    cached norms instead of recomputing them.

    A translated system holds ``b' = b + A v`` implicitly, as the base
    bounds b and v; its first row pass adds a norm bound of v (passes that
    race to it store the same bits).  A row pass computes the exact bounds
    of the rows it evaluates exactly, and the first read of :attr:`b`
    builds the whole vector, with the same bits either way.  A bound that
    overflows float64 raises ``OverflowError`` naming its row.
    """

    __slots__ = ("n", "indptr", "indices", "data", "row_norms_sq", "row_norms",
                 "_norm_bounds", "_b", "_base_b", "_shift", "_shift_norm")

    def __init__(self, a, b, *, n: int | None = None):
        if n is None:
            n, (indptr, indices, data) = _dense_to_csr(a)
        else:
            indptr, indices, data = _checked_csr(a, n)
        m = indptr.size - 1
        b = np.array(b, dtype=np.float64).reshape(-1)
        if b.shape != (m,):
            raise ValueError(
                f"right-hand side has length {b.shape[0]}, expected m = {m}"
            )
        _check_finite_rhs(b)
        self.n, self.indptr, self.indices, self.data = n, indptr, indices, data
        bad = np.flatnonzero(~np.isfinite(data))
        if bad.size:
            row = int(np.searchsorted(indptr, bad[0], side="right")) - 1
            raise ValueError(f"row {row} has a non-finite coefficient")
        empty = np.flatnonzero(indptr[1:] == indptr[:-1])
        if empty.size:
            raise ValueError(
                f"row {empty[0]} is the zero vector; every inequality needs a non-zero "
                "coefficient row"
            )
        try:
            with np.errstate(over="ignore"):  # an infinite square is reported below
                norms_sq = self._chunked_dots(None, "its squared norm")
        except OverflowError as exc:  # the squares are non-negative: a sum overflows
            raise ValueError(str(exc)) from None
        for i in np.flatnonzero(norms_sq == math.inf).tolist():  # a square overflows
            raise ValueError(f"row {i}: its squared norm overflows float64")
        for i in np.flatnonzero(norms_sq == 0.0).tolist():
            raise ValueError(f"row {i}: its squared norm underflows float64")
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
        self._shift_norm = None  # a norm bound of shift, taken by the first pass

    def _sharing_rows(self) -> "InequalitySystem":
        obj = object.__new__(InequalitySystem)
        obj.n, obj.indptr, obj.indices, obj.data = self.n, self.indptr, self.indices, self.data
        obj.row_norms_sq = self.row_norms_sq
        obj.row_norms = self.row_norms
        obj._norm_bounds = self._norm_bounds
        return obj

    @property
    def m(self) -> int:
        return self.indptr.size - 1

    @property
    def a(self) -> np.ndarray:
        """The dense ``(m, n)`` coefficient matrix, built anew on each read."""
        return _scattered(*self._gather(range(self.m)), self.n)

    @property
    def b(self) -> np.ndarray:
        """The right-hand side; built on first read for a translated
        system."""
        b = self._b
        if b is None:
            with np.errstate(over="ignore"):
                sums = self._chunked_dots(self._shift[None], _BOUND)
                b = self._exact_bounds(np.arange(self.m), sums)
            self._b = b
        return b

    def _gather(self, rows) -> tuple:
        """The stored entries of ``rows``, an ascending range or index
        array, as ``(values, columns, starts)``.  When every row from the
        first to the last is fully stored, ``values`` is the rows' ``(h, n)``
        block, a view of ``data`` for consecutive rows, else a gathered
        copy, and ``columns`` and ``starts`` are None; an empty ``rows``
        gives a ``(0, n)`` block.  Otherwise they are the rows' CSR
        segments: the 1-D entries and columns of the rows in turn, views of
        ``data`` and ``indices`` for consecutive rows, else gathered copies,
        and the offsets at which each row begins."""
        if not len(rows):
            return np.zeros((0, self.n)), None, None
        lo, hi = int(rows[0]), int(rows[-1]) + 1
        first, last = self.indptr[lo], self.indptr[hi]
        consecutive = hi - lo == len(rows)
        if last - first == (hi - lo) * self.n:  # no row stores more than n
            block = self.data[first:last].reshape(hi - lo, self.n)
            return block if consecutive else block.take(rows - lo, axis=0), None, None
        if consecutive:
            return (self.data[first:last], self.indices[first:last],
                    self.indptr[lo:hi] - first)
        offsets = self.indptr[rows]
        counts = self.indptr[rows + 1] - offsets
        starts = np.cumsum(counts) - counts
        pos = np.arange(counts.sum()) + np.repeat(offsets - starts, counts)
        return self.data[pos], self.indices[pos], starts

    def _chunked_dots(self, ys, what: str) -> np.ndarray:
        """:func:`_dots` of every row, for ys of one row or None, summed
        over consecutive rows that store at most :data:`_BLOCK_ELEMENTS`
        entries at a time (one row at least)."""
        out, lo = [], 0
        while lo < self.m:
            hi = int(np.searchsorted(self.indptr, self.indptr[lo] + _BLOCK_ELEMENTS,
                                     side="right")) - 1
            rows = range(lo, max(hi, lo + 1))
            out.append(_dots(rows, self._gather(rows), ys, [what])[0])
            lo = rows[-1] + 1
        return np.concatenate(out)

    def _exact_bounds(self, rows: np.ndarray, sums: np.ndarray) -> np.ndarray:
        """``b_i + <a_i, v>`` of a translated system for ``rows`` (an index
        array), given the exactly rounded ``sums`` ``<a_i, v>``.  The caller
        silences overflow warnings."""
        b = self._base_b[rows] + sums
        finite = np.isfinite(b)
        if not finite.all():
            bad = np.flatnonzero(~finite)[0]
            raise OverflowError(f"row {rows[bad]}: {_BOUND} overflows float64")
        return b

    def _translated(self, v: np.ndarray) -> "InequalitySystem":
        """System with bounds ``b + A v`` held implicitly (see
        :func:`modap.dynamics.translate`, which validates v).

        O(n): it keeps the base bounds and a copy of v, which the filter
        reads through ``A (x - v) - b`` (see the module docstring); the
        filter's first pass adds a norm bound of v.  Translating a
        translated system first builds its exact bounds.
        """
        obj = self._sharing_rows()
        obj._set_rhs(None, self.b, v.copy())
        return obj

    def __repr__(self) -> str:
        return f"InequalitySystem(m={self.m}, n={self.n}, nnz={self.data.size})"


def _dense_to_csr(a):
    """``n`` and the CSR arrays of a dense ``(m, n)`` array-like.  The data
    of a matrix with no zero is a copy of the matrix, 64-byte aligned,
    which OpenBLAS reads faster: a 1000 x 100 matrix-vector product took
    15-18 us aligned and 22-23 us at a 16-byte offset (2-vCPU x86-64 VM,
    numpy 2.4 with OpenBLAS 0.3.31)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"coefficient array must be 2-D, got shape {a.shape}")
    m, n = a.shape
    if m < 1 or n < 1:
        raise ValueError(f"system must have m >= 1 rows and n >= 1 columns, got {a.shape}")
    stored = a != 0.0
    indptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(stored.sum(axis=1), out=indptr[1:])
    if indptr[-1] != a.size:
        return n, (indptr, np.nonzero(stored)[1], a[stored])
    buffer = np.empty(a.size + 8)
    skip = (-buffer.ctypes.data % 64) // 8
    data = buffer[skip:skip + a.size]
    data.reshape(m, n)[...] = a
    return n, (indptr, np.tile(np.arange(n), m), data)


def _checked_csr(rows, n: int):
    """Copies of CSR arrays ``(indptr, indices, data)``, checked."""
    indptr, indices = (_index_array(part, what) for part, what in zip(rows, ("indptr", "columns")))
    data = np.array(rows[2], dtype=np.float64).reshape(-1)
    if n < 1 or indptr.size < 2:
        raise ValueError(f"system must have m >= 1 rows and n >= 1 columns, got "
                         f"({indptr.size - 1}, {n})")
    if (indptr[0] != 0 or indptr[-1] != data.size or indices.size != data.size
            or (np.diff(indptr) < 0).any()):
        raise ValueError("CSR indptr must ascend from 0 to len(data) = len(indices)")
    ascending = np.diff(indices) > 0
    starts = indptr[1:-1]
    ascending[starts[(starts > 0) & (starts < data.size)] - 1] = True  # row boundaries
    if not ascending.all() or (indices < 0).any() or (indices >= n).any():
        raise ValueError(f"CSR columns must lie in [0, {n}) and ascend within each row")
    if (data == 0.0).any():
        raise ValueError("CSR rows must store no zero coefficient")
    return indptr, indices, data


def _index_array(part, what: str) -> np.ndarray:
    """``part`` as a 1-D intp copy; a value that is not an integer raises
    ``ValueError`` instead of being truncated."""
    raw = np.asarray(part).reshape(-1)
    with np.errstate(invalid="ignore"):  # nan and inf are reported below
        out = raw.astype(np.intp)
    if raw.dtype.kind not in "biu" and not (out == raw).all():
        raise ValueError(f"CSR {what} must be integers")
    return out


def _dots(rows, gathered: tuple, ys, whats) -> np.ndarray:
    """``<a_i, y>`` exactly rounded for every row y of the ``(k, n)`` array
    ``ys`` and every row i of ``rows``, as a ``(k, len(rows))`` array, or
    ``||a_i||^2`` (k = 1) for ``ys = None``, from the rows' ``gathered``
    entries, a block or CSR segments (see :meth:`InequalitySystem._gather`).
    The products for every y are stacked, y by y, into one ``(k h, n)``
    block or one segment array, so they take one
    :func:`~modap.summation.row_sums` call, however many ys.  A
    sum that overflows (``OverflowError``), or products that overflow with
    both signs (``ValueError``), raise the same type with a message naming
    the row and ``whats[j]`` for the j-th y, the first y first.  The caller
    silences overflow warnings."""
    values, columns, starts = gathered
    if ys is None:
        products = values * values
    else:
        other = ys[:, None] if columns is None else ys.take(columns, axis=1)
        products = (values * other).reshape(-1, *values.shape[1:])
    if starts is not None:
        starts = np.concatenate([starts + j * values.size for j in range(len(whats))])
    try:
        return row_sums(products, starts).reshape(len(whats), -1)
    except (OverflowError, ValueError) as exc:
        pieces = list(products) if starts is None else np.split(products, starts[1:])
        for k, piece in enumerate(pieces):  # by y, then by row
            try:
                math.fsum(piece.tolist())
            except (OverflowError, ValueError) as err:
                raise type(err)(f"row {rows[k % len(rows)]}: {whats[k // len(rows)]} "
                                "overflows float64") from err
        raise exc


def _scattered(values: np.ndarray, columns, starts, n: int) -> np.ndarray:
    """Gathered rows, a block or CSR segments (see
    :meth:`InequalitySystem._gather`), as a new dense block, ``+0.0``
    wherever no entry is stored."""
    out = np.zeros((len(values) if starts is None else starts.size, n))
    if starts is None:
        out[...] = values
    else:
        counts = np.diff(starts, append=values.size)
        out[np.repeat(np.arange(starts.size), counts), columns] = values
    return out


def _check_finite_rhs(b: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        raise ValueError(f"bound of row {int(bad[0])} is not finite: {float(b[bad[0]])!r}")


def _as_point(x, n: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValueError(
            f"dimension mismatch: expected a point of length {n}, got shape {arr.shape}"
        )
    return arr


def _norm_bound(v: np.ndarray) -> float:
    """Upper bound on ``||v||``; 0 only for the zero vector.

    It takes one float64 ``s = v @ v`` in any order, fused multiply-adds
    included: at most 2n - 1 roundings of non-negative values, each at
    most u = 2^-53 relative or 2^-1075 absolute (a subnormal result), and
    at most n on the way from any square to s, so ``s >= (1 - u)^n
    ||v||^2 - n 2^-1074`` and ``||v||^2 <= (1 + gamma_n) (s + n
    2^-1074)``, ``gamma_n = n u / (1 - n u)``.  For s in [2^-900, 2^900]
    and ``n <= 2^52`` that is at most ``(1 + 2 n u) (1 + 2^-122) s``, so
    ``||v|| <= (1 + n u + 2^-122) sqrt(s)``; the rounded square root and
    the product with ``1 + 2 (n + 4) u`` (exact) lose at most one u each
    and stay normal, and the factor covers all three.  Any other s (0,
    not finite, or where the underflow term or the range would matter)
    falls back to ``math.hypot``, which is within one ulp (2^-1074 for a
    subnormal result) and does not overflow or underflow on the way.  The
    caller silences overflow warnings.
    """
    s = float(v @ v)
    if _SQUARE_MIN <= s <= _SQUARE_MAX:
        return math.sqrt(s) * (1.0 + (v.size + 4) * _TWO_U)
    h = math.hypot(*v.tolist())
    return h * _NORM_SLACK + 2.0 ** -1074 if h else 0.0


def _unsettled_rows(sys: InequalitySystem, x: np.ndarray, start: int, stop: int):
    """Rows in [start, stop) that the float64 filter cannot prove satisfied
    (see the module docstring for the bound and the settle test), ascending
    and counted from start.  The estimate is one product over the rows'
    stored entries, as :meth:`InequalitySystem._gather` reads them: a
    matrix-vector product on a block, one ``np.add.reduceat`` on CSR
    segments.  The caller silences floating-point warnings."""
    shift = sys._shift
    values, columns, starts = sys._gather(range(start, stop))
    y = x if shift is None else x - shift
    t = values @ y if starts is None else np.add.reduceat(values * y[columns], starts)
    xnorm = _norm_bound(x)
    if shift is None:
        t -= sys._b[start:stop]
        e = sys._norm_bounds[start:stop] * xnorm
    else:
        if sys._shift_norm is None:  # the first pass on this snapshot
            sys._shift_norm = _norm_bound(shift)
        base_b = sys._base_b[start:stop]
        t -= base_b
        e = sys._norm_bounds[start:stop] * (xnorm + sys._shift_norm)
        e += np.abs(base_b)
    e += np.abs(t)
    e *= (sys.n + 8) * _TWO_U
    if xnorm or shift is not None:
        e += (sys.n + 8) * _MIN_NORMAL
    return (~_settled(t, e)).nonzero()[0]


def _settled(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Which rows the estimates t and their bounds e prove satisfied:
    ``fl(t + e) <= 0`` and ``e < _FILTER_LIMIT``, the same as ``t <= -e``
    for finite t and e (see the module docstring).  Overwrites e."""
    settled = e < _FILTER_LIMIT
    e += t
    settled &= e <= 0.0
    return settled


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
    # one scope for the pass: a row whose estimate or bound is not finite
    # takes the exact path, and a non-finite slice fails the step's check
    with np.errstate(all="ignore"):
        rows = _unsettled_rows(sys, x, start, stop)
        if not rows.size:
            return np.zeros((0, sys.n)), 0.0
        if start:
            rows += start
        gathered = sys._gather(rows)
        if sys._b is not None:
            (r,) = _dots(rows, gathered, x[None], ["its residual"])
            r -= sys._b[rows]
        else:
            r, sums = _dots(rows, gathered, np.array((x, sys._shift)),
                            ["its residual", _BOUND])
            r -= sys._exact_bounds(rows, sums)
        # a block is multiplied as it is stored; segments are spread first
        a = gathered[0] if gathered[2] is None else _scattered(*gathered, sys.n)
        hit = r > 0.0
        if np.count_nonzero(hit) < hit.size:  # a fraction of hit.all()'s cost
            r, rows, a = r[hit], rows[hit], a[hit]
        block = (r / sys.row_norms_sq[rows])[:, None] * a
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

    Scaling a row and its bound by ``c = 2^k`` leaves the value, and so
    every eps decision, bit-identical while the scaled products, sums and
    norms stay normal.  Any other positive factor rounds the scaled entries:
    the value then agrees only within rounding, and a decision on a value
    within rounding of eps may differ.
    """
    return violated_slices(sys, _as_point(x, sys.n))[1]


def vector_norms(vs: np.ndarray) -> list[float]:
    """Euclidean norm of each row of a ``(k, n)`` stack of vectors.

    The squares of the whole stack take one exactly rounded
    :func:`~modap.summation.row_sums` call, so k norms cost one exact sum.
    In the normal range a norm is the correctly rounded ``sqrt`` of the
    exactly rounded sum of squares, ``sqrt(math.fsum(v * v))``.  A vector
    whose sum of squares is 0, subnormal or infinite (a square or the sum
    overflows) is then scaled by a power of two on its own, so a non-zero
    vector never gets norm 0, nor inf unless its norm exceeds the float64
    range; a vector holding ``inf`` has norm inf, one holding ``nan`` nan.
    """
    with np.errstate(over="ignore"):  # an infinite square is rescaled below
        squares = vs * vs
    try:
        sums = row_sums(squares).tolist()
    except OverflowError:  # the squares are non-negative: some row's sum overflows
        sums = [math.inf] * len(vs)
        for i, row in enumerate(squares.tolist()):
            with contextlib.suppress(OverflowError):
                sums[i] = math.fsum(row)
    return [math.sqrt(s) if _MIN_NORMAL <= s < math.inf else _rescaled_norm(vs[i], s)
            for i, s in enumerate(sums)]


def _rescaled_norm(v: np.ndarray, s: float) -> float:
    """``||v||`` from v scaled by a power of two, for a v whose exactly
    rounded sum of squares s is 0, subnormal or infinite; ``sqrt(s)`` when
    v is zero or holds ``inf`` or ``nan``."""
    big = float(np.max(np.abs(v))) if v.size else 0.0
    if big == 0.0 or not math.isfinite(big):
        return math.sqrt(s)
    k = math.frexp(big)[1]
    scaled = np.ldexp(v, -k)
    try:
        return math.ldexp(math.sqrt(exact_dot(scaled, scaled)), k)
    except OverflowError:  # the norm itself exceeds the float64 range
        return math.inf


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of one vector: :func:`vector_norms` of the one-row
    stack."""
    return vector_norms(v[None])[0]
