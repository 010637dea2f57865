"""Systems of linear inequalities, stored as sparse rows, and the one row
pass over them.

A system is ``A x <= b`` with m rows in R^n.  :class:`InequalitySystem`
stores the coefficient rows once, in compressed sparse row (CSR) form:
row i's non-zero coefficients are ``data[indptr[i]:indptr[i + 1]]``, in the
strictly ascending columns ``indices[indptr[i]:indptr[i + 1]]``.  Exact
zeros, ``+0.0`` and ``-0.0``, are not stored, so every kernel below reads
only the stored entries and costs O(nnz) rather than O(m n).  A block of
rows that are all fully stored (``nnz_i = n``) is read as a 2-D view of
``data``, so a dense input keeps its BLAS product and its dense row block;
the view is not a second copy.  The system also holds the rows' cached
norms and the bounds, given or translated.  :func:`violated_slices`
evaluates every row at a point x in one pass: it returns the positive
slices of the violated rows, i.e. the reflection vectors
``((<a_i, x> - b_i) / ||a_i||^2) a_i`` of the rows whose residual is
positive, and the largest normalized violation.  The solvers average the
slices into the step direction (the pseudo-projection) and compare the
maximum with eps (the membership test).

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
``np.add.reduceat`` of the entrywise products, or one matrix-vector product
on a fully stored block), and a forward error bound per row,

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
overflows gives a non-finite t_i or e_i.  ``t_i <= -e_i`` proves the
exact residual is at most 0, so the row is satisfied and skipped.  Every
other row (violated, near its hyperplane, or with an estimate or bound that
is not finite) goes through the exact path: the products of its stored
entries, taken for all such rows at once, and their exactly rounded row
sums (:func:`~modap.summation.row_sums`, vectorised over the block), the
bits of :func:`~modap.summation.exact_dot` over the dense row.  On a
translated system the products with x and with v are stacked into one
block, so the residuals and the exact bounds take one sum; a single such
row is read as a view of ``data``, without a gather.  The bound
only decides which rows may be skipped; every value the pass returns
(slices, the maximum violation, and so the membership decision) comes from
the exact path, bit for bit.  This is a floating-point filter in the sense
of Shewchuk (DCG 18, 1997), with the dot-product error bound of Ogita, Rump
and Oishi (SISC 26(6), 2005); it assumes IEEE-754 binary64 with subnormal
inputs kept, which numpy and CPython provide.
"""

from __future__ import annotations

import math

import numpy as np

from .summation import SMALL_BLOCK, exact_dot, row_sums

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
# _norm_bound takes sqrt(v @ v) when v @ v lies in this range
_SQUARE_MIN = 2.0 ** -900
_SQUARE_MAX = 2.0 ** 900
_BOUND = "its translated bound"
# row blocks of many-row sums (squared norms, translated bounds) hold at
# most this many elements, so their temporaries stay near 0.5 MB each
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
    bounds b, v and a norm bound of v: a row pass computes the exact bounds
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
                rows = np.arange(m)
                blocks = self._blocks(rows, self._full_block(0, m))
                (norms_sq,) = _dots(rows, blocks, None, ["its squared norm"])
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
        self._shift_norm = None
        if shift is not None:
            with np.errstate(over="ignore"):
                self._shift_norm = _norm_bound(shift)

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
        full = self._full_block(0, self.m)
        if full is not None:
            return full.copy()
        return _scattered(self._blocks(np.arange(self.m)), self.m, self.n)

    @property
    def b(self) -> np.ndarray:
        """The right-hand side; built on first read for a translated
        system."""
        b = self._b
        if b is None:
            rows = np.arange(self.m)
            with np.errstate(over="ignore"):
                blocks = self._blocks(rows, self._full_block(0, self.m))
                (sums,) = _dots(rows, blocks, self._shift[None], [_BOUND])
                b = self._exact_bounds(rows, sums)
            self._b = b
        return b

    def _full_block(self, start: int, stop: int) -> np.ndarray | None:
        """Rows [start, stop) as a 2-D view of ``data`` when every one is
        fully stored, else None.  No row stores more than n entries, so the
        block's count says whether all store n."""
        lo, hi = self.indptr[start], self.indptr[stop]
        if hi - lo != (stop - start) * self.n:
            return None
        return self.data[lo:hi].reshape(stop - start, self.n)

    def _blocks(self, rows: np.ndarray, dense=None) -> list:
        """The entries of ``rows`` (an index array, not empty) in blocks
        ``(part, values, columns)`` of at most :data:`_BLOCK_ELEMENTS`
        elements, one for each part (a slice or index array) of ``rows``.

        ``dense`` is the rows' dense block when all are fully stored: its
        row blocks, with ``columns`` None, as for any block of fully stored
        rows.  A single row is a ``(1, w)`` view of its stored entries in
        ``data`` (and of its columns in ``indices``, None when the row is
        fully stored), with no gather.  Otherwise ``values`` holds the
        stored entries padded with ``0.0`` to the block's widest row, and
        ``columns`` their columns padded with n.  Where padding every row to
        the widest would more than double the entries of a block larger than
        :data:`~modap.summation.SMALL_BLOCK`, rows go in groups whose entry
        counts share one range ``[2^(k-1), 2^k)``, so that it never does.
        """
        if dense is not None:
            return [(part, dense[part], None) for part in _row_blocks(rows.size, self.n)]
        if rows.size == 1:
            lo, hi = self.indptr[rows[0]], self.indptr[rows[0] + 1]
            return [(slice(None), self.data[lo:hi].reshape(1, -1),
                     None if hi - lo == self.n else self.indices[lo:hi].reshape(1, -1))]
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        width, total = int(counts.max()), int(counts.sum())
        if rows.size * width <= max(2 * total, SMALL_BLOCK):
            groups = [(None, width, total)]
        else:
            width_class = np.frexp(counts)[1]
            groups = []
            for k in np.unique(width_class).tolist():
                group = np.flatnonzero(width_class == k)
                groups.append((group, int(counts[group].max()), int(counts[group].sum())))
        blocks = []
        for group, width, total in groups:
            size = rows.size if group is None else group.size
            slots = np.arange(width)
            for part in _row_blocks(size, width):
                if group is not None:
                    part = group[part]
                if size * width == total:  # no padding; fully stored rows are dense
                    pos = starts[part, None] + slots
                    blocks.append((part, self.data[pos],
                                   None if width == self.n else self.indices[pos]))
                    continue
                last = counts[part, None] - 1
                pos = starts[part, None] + np.minimum(slots, last)
                stored = slots <= last
                blocks.append((part, np.where(stored, self.data[pos], 0.0),
                               np.where(stored, self.indices[pos], self.n)))
        return blocks

    def _exact_bounds(self, rows: np.ndarray, sums: np.ndarray) -> np.ndarray:
        """``b_i + <a_i, v>`` of a translated system for ``rows`` (an index
        array), given the exactly rounded ``sums`` ``<a_i, v>``.  The caller
        silences overflow warnings."""
        b = self._base_b[rows] + sums
        bad = np.flatnonzero(~np.isfinite(b))
        if bad.size:
            raise OverflowError(f"row {rows[bad[0]]}: {_BOUND} overflows float64")
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
    indptr, indices, data = (np.array(part, dtype=dtype).reshape(-1)
                             for part, dtype in zip(rows, (np.intp, np.intp, np.float64)))
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


def _dots(rows: np.ndarray, blocks: list, ys, whats) -> np.ndarray:
    """``<a_i, y>`` exactly rounded for every row y of the ``(k, n)`` array
    ``ys`` and every row i of ``rows``, as a ``(k, rows.size)`` array, or
    ``||a_i||^2`` (k = 1) for ``ys = None``, from their ``blocks`` (see
    :meth:`InequalitySystem._blocks`; a zero pads nothing into an exact
    sum).  The products of a block for every y are stacked into one ``(k
    h, w)`` block, so each block takes one
    :func:`~modap.summation.row_sums` call, however many ys.  A sum that
    overflows (``OverflowError``), or products that overflow with both signs
    (``ValueError``), raise the same type with a message naming the row and
    ``whats[j]`` for the j-th y, the first y first.  The caller silences
    overflow warnings."""
    out = np.empty((len(whats), rows.size))
    for part, values, columns in blocks:
        try:
            out[:, part] = row_sums(_products(values, columns, ys)).reshape(len(whats), -1)
        except (OverflowError, ValueError) as exc:
            _raise_named(rows, blocks, ys, whats, exc)
    return out


def _products(values: np.ndarray, columns, ys) -> np.ndarray:
    """The ``(k h, w)`` products of an ``(h, w)`` block with each of the k
    rows of ``ys`` in turn, or its squares for ``ys = None``."""
    if ys is None:
        return values * values
    # padding reads y[n - 1]
    other = ys[:, None] if columns is None else ys.take(columns, axis=1, mode="clip")
    return (values * other).reshape(-1, values.shape[1])


def _raise_named(rows: np.ndarray, blocks: list, ys, whats, exc: Exception):
    """Raise the error of the first sum of :func:`_dots` that ``math.fsum``
    cannot take, by y and then by row, as the same type naming its row."""
    for j, what in enumerate(whats):
        for part, values, columns in blocks:
            h = len(values)
            for i, p in zip(rows[part], _products(values, columns, ys)[j * h:(j + 1) * h]):
                try:
                    math.fsum(p.tolist())
                except (OverflowError, ValueError) as err:
                    raise type(err)(f"row {i}: {what} overflows float64") from err
    raise exc


def _scattered(blocks: list, size: int, n: int) -> np.ndarray:
    """The ``size`` rows of padded ``blocks`` as a dense block, ``+0.0``
    wherever no entry is stored."""
    out = np.zeros((size, n + 1))
    for part, values, columns in blocks:
        if columns is None:
            out[part, :n] = values
        else:
            out[np.arange(size)[part, None], columns] = values  # padding: column n
    return out[:, :n]


def _check_finite_rhs(b: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        raise ValueError(f"bound of row {int(bad[0])} is not finite: {float(b[bad[0]])!r}")


def _row_blocks(m: int, n: int):
    """Consecutive row slices of an ``(m, n)`` block, each of at most
    :data:`_BLOCK_ELEMENTS` elements (one row at least), so that a
    many-row sum needs only small temporaries."""
    step = max(1, _BLOCK_ELEMENTS // n)
    return [slice(lo, lo + step) for lo in range(0, m, step)]


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
    (see the module docstring for the bound), ascending and counted from
    start, and the rows' full block (:meth:`InequalitySystem._full_block`)."""
    coef = (sys.n + 8) * _TWO_U
    shift = sys._shift
    dense = sys._full_block(start, stop)
    with np.errstate(all="ignore"):
        xnorm = _norm_bound(x)
        y = x if shift is None else x - shift
        if dense is not None:
            t = dense @ y
        else:
            lo, hi = sys.indptr[start], sys.indptr[stop]
            t = np.add.reduceat(sys.data[lo:hi] * y[sys.indices[lo:hi]],
                                sys.indptr[start:stop] - lo)
        if shift is None:
            t -= sys._b[start:stop]
            scale = sys._norm_bounds[start:stop] * xnorm
        else:
            base_b = sys._base_b[start:stop]
            t -= base_b
            scale = sys._norm_bounds[start:stop] * (xnorm + sys._shift_norm)
            scale += np.abs(base_b)
        scale += np.abs(t)
        e = coef * scale
        if xnorm or shift is not None:
            e += (sys.n + 8) * _MIN_NORMAL
        settled = (t <= -e) & (e < _FILTER_LIMIT)
    return np.flatnonzero(~settled), dense


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
    local, dense = _unsettled_rows(sys, x, start, stop)
    if not local.size:
        return np.zeros((0, sys.n)), 0.0
    rows = local + start
    if dense is None:
        a, blocks = None, sys._blocks(rows)
    else:
        a = dense[local]
        blocks = [(slice(None), a, None)]
    with np.errstate(all="ignore"):  # a non-finite slice fails the step's check
        if sys._b is not None:
            (r,) = _dots(rows, blocks, x[None], ["its residual"])
            r -= sys._b[rows]
        else:
            r, sums = _dots(rows, blocks, np.array((x, sys._shift)),
                            ["its residual", _BOUND])
            r -= sys._exact_bounds(rows, sums)
        if a is None:
            a = _scattered(blocks, rows.size, sys.n)
        hit = r > 0.0
        if not hit.all():
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
