"""Systems of linear inequalities, stored as sparse rows, and the one row
pass over them.

A system is ``A x <= b`` with m rows in R^n.  :class:`InequalitySystem`
stores the coefficient rows once, in compressed sparse row (CSR) form:
row i's non-zero coefficients are ``data[indptr[i]:indptr[i + 1]]``, in the
strictly ascending columns ``indices[indptr[i]:indptr[i + 1]]``.  Exact
zeros, ``+0.0`` and ``-0.0``, are not stored, so every kernel below reads
only the stored entries and costs O(nnz) rather than O(m n).  A system whose
every row is fully stored (``nnz = m n``) keeps no column array: its
columns are ``0, ..., n - 1`` in each row, and ``indices`` builds them on
each read.  One method,
:meth:`InequalitySystem._gather`, reads a row set, in one of two forms.
When every row from its first to its last is fully stored (``nnz_i = n``),
the rows are one ``(h, n)`` block: a 2-D view of ``data`` (not a second
copy) for consecutive rows, so a dense input keeps its BLAS product and its
dense row block.  Any other row set is read as its CSR segments, which
:func:`~modap.summation.row_sums` sums segment by segment, so no row is
padded.  The system also holds the rows' cached norms and its bounds b; a
translated system is a :class:`Translated`, the base system plus a shift v.
:func:`violated_slices` evaluates every row at a point x
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
    call; a row that stores one entry a takes ``fl(a a)``, its exactly
    rounded sum and so the bits :func:`~modap.summation.row_sums` gives its
    one-entry segment, and only wider rows are summed;
  * every row-level reduction goes through :mod:`modap.summation`, so all
    results are independent of evaluation order and of how the row list is
    partitioned across workers.  A sum over the stored entries has the bits
    of the sum over the whole dense row: a zero addend does not change an
    exactly rounded sum, and every zero sum is ``+0.0``.

Filtered row passes.  :func:`violated_slices` is the one row pass of an
iteration: it returns the violated rows' slices and the largest normalized
violation together, so the step, the membership test and the trace read the
same evaluation; :func:`eps_membership` and :func:`max_relative_violation`
are thin wrappers over it, which silence floating-point warnings around it;
the pass itself leaves that to its caller (the solvers' loop holds one scope
for a whole solve).  It starts with one float64 estimate of the
residuals of rows [start, stop), ``t = A[start:stop] y - b``, where y = x,
or ``y = fl(x - v)`` on a system translated by v (a :class:`Translated`, see
:func:`modap.dynamics.translate`).  The products are read through the
range's layout, built once per system and range
(:meth:`InequalitySystem._estimate`): one matrix-vector product on a block;
on CSR segments the entrywise products, which are the one-entry rows'
estimates, and ``np.add.reduceat`` over the wider rows' segments only.  A
row is *settled*, proved satisfied and skipped, when

    fl(t_i + T_i) <= 0  and  t_i >= -2^960,    T_i = fl(fl(theta^n_i S) + theta^d).

S is ``||x||`` plus, translated, ``||v||``, each bounded from above by
:func:`_norm_bound`; y and S depend on the snapshot and x alone, so the
row ranges of one superstep share them (:func:`_point`).  The settle
thresholds are fixed when the system is built.  With c = (n + 8) 2^-52 and
d = (n + 8) 2^-1022,

    theta^n_i >= c N_i / (1 - c),    theta^d >= d / (1 - c),

where ``N_i >= ||a_i||`` is a rigorous bound derived from the cached
squared norm, so it stays valid for a row like ``[1e-160]`` whose squared
norm has underflowed.  They are rounded up once, at set-up: ``kappa = c /
(1 - c)`` is widened by ``1 + 2^-48``, which covers the at most three
roundings, all normal, of ``kappa``, ``theta^n_i = N_i kappa`` and
``theta^d = 2^-970 kappa`` (d = c 2^-970).  S = 0 only when x and v are
zero; the pass then drops T altogether, as every product is 0 and t_i =
R_i = -b_i exactly (R_i below).  A pass reads no bound term: on a
translated system |b_i| is bounded by the estimate itself, see (e) below.
As x holds n floats, n < 2^50, so c < 1/2 and ``gamma_n`` below is under
1/7.

Why a settled row is satisfied.  Let u = 2^-53, g = c / 2 = (n + 8) u,
``e = g / (1 - g)`` and S* the exact ``||x||`` (+ ``||v||``).  The exact
path below decides from ``R_i = sum_j fl(a_ij x_j) - B_i``, the exact sum
of its rounded products against B_i = b_i or, translated, the rounded
bound ``fl(b_i + w_i)``, ``w_i = RN(sum_j fl(a_ij v_j))``: the row is
violated iff R_i > 0.  Let p_i be the estimate's float64 ``<a_i, y>``, so
t_i = fl(p_i - b_i).  While p_i is finite (then no step forming it
overflowed: an overflow gives +-inf or NaN, which no later step makes
finite), with the row's ``nnz_i <= n`` products,

  (a) ``|p_i - <a_i, y>| <= gamma_n sum_j |a_ij y_j| <= gamma_n (1 + u)
      N_i S*``, ``gamma_n = n u / (1 - n u)``, in any order and with fused
      multiply-adds (Ogita, Rump and Oishi, SISC 26(6), 2005);
  (b) ``fl(x - v)`` is within u of ``x - v`` componentwise (exact where
      the difference is subnormal), so ``|<a_i, y - (x - v)>| <= u N_i
      S*``;
  (c) ``|t_i - (p_i - b_i)| <= u |t_i| / (1 - u)``;
  (d) the exact path's rounded products with x lose at most ``u N_i S*``,
      and, translated, its rounded ``w_i`` and ``B_i`` at most ``3.01 u N_i
      S* + u |b_i|`` more;
  (e) ``|b_i| <= |p_i| + |t_i| / (1 - u) <= 2 N_i S* + 2 |t_i|`` (plus
      underflow), so the ``u |b_i|`` of (d) is at most ``2 u (N_i S* +
      |t_i|)``;

and each product may lose 2^-1075 to underflow, below 4n 2^-1075 in all,
far below d / 2.  The factors of ``N_i S*`` add up to at most ``gamma_n + 8
u``, and those of |t_i| to 4 u; both are at most e, since ``z / (1 - z)``
grows at least as fast as z and ``n u <= g - 8 u``.  So

    |t_i - R_i| <= e (N_i S* + |t_i|) + d / 2.                           (1)

Now let the test pass.  T_i is at least 0, or NaN, which fails it, and the
guard ``t_i >= -2^960`` makes t_i finite, and so p_i.  Rounding is
monotone and keeps 0, and an exact sum of two floats that is not 0 does
not round to 0 (subnormals are kept), so ``fl(t_i + T_i) <= 0`` iff ``t_i
+ T_i <= 0`` (a sum that overflowed would be +inf).  Hence t_i <= -T_i <=
0 and T_i <= 2^960.  Forming T_i (the sum S, the product and the addition)
loses at most three factors ``1 - u`` and 2^-1075 to an underflowing
product, so T_i is still at least ``(g N_i S* + d / 2) / (1 - c)``, about
half what the thresholds hold.  So ``N_i S* < 2^961 / c < 2^1010``, by (e)
|b_i| < 2^1012, and no product, sum or bound of the exact path overflows.
With |t_i| = -t_i, and as ``e / (1 - e) = g / (1 - c)`` and ``1 / (1 - e)
<= 1 / (1 - c)``, the same bound on T_i gives ``t_i + e (N_i S* + |t_i|)
+ d / 2 <= 0``, so R_i <= 0 by (1): the row is satisfied, and skipping it
changes nothing, the exact path's ``ValueError`` included.  An estimate
that is NaN, infinite or below -2^960 leaves its row unsettled.

The exact path.  Every other row (violated, near its hyperplane, or with an
estimate that is not finite or is huge) goes through the exact path: the
products of its stored entries, taken for all such rows at once, and their
exactly rounded row sums (:func:`~modap.summation.row_sums`, vectorised
over the block), the bits of :func:`~modap.summation.exact_dot` over the
dense row.  On a translated system the products with x and with v are
stacked into one block or segment array, so the residuals and the sums
``<a_i, v>`` take one sum, and b_i is added to each ``<a_i, v>`` in place
to give the exact bound (one that overflows raises ``ValueError`` naming
its row); consecutive rows, a single row among them, are read as views of
``data``, without a gather, and the slices of a block multiply it as it is
stored.  A lone exact row, the most a pass leaves on the translating model
problem, takes its sums the same way and is finished in Python floats
(:func:`_lone_row`): its bound, residual, violation test and the two
quotients round as numpy's float64 operations do, and no division raises,
as every cached squared norm is positive.  The settle test only decides
which rows may be skipped; every value the pass returns (slices, the
maximum violation, and so the membership decision) comes from the exact
path, bit for bit.  This is a
floating-point filter in the sense of Shewchuk (DCG 18, 1997); it assumes
IEEE-754 binary64 with subnormal inputs kept, which numpy and CPython
provide.
"""

from __future__ import annotations

import contextlib
import math
from typing import NamedTuple

import numpy as np

from .summation import exact_dot, row_sums

__all__ = [
    "InequalitySystem",
    "Translated",
    "eps_membership",
    "max_relative_violation",
    "vector_norms",
]

_TWO_U = 2.0 ** -52  # twice the unit roundoff of float64
_MIN_NORMAL = 2.0 ** -1022
# an estimate below minus this leaves the row to the exact path, which then
# behaves (overflow included) exactly as without the filter
_FILTER_LIMIT = 2.0 ** 960
# d / c, for the settle thresholds' underflow term d = c 2^-970
_D_OVER_C = 2.0 ** -970
# relative slack on computed norm bounds; their own rounding is below 5 ulp
_NORM_SLACK = 1.0 + 2.0 ** -48
# _norm_bound takes sqrt(v @ v) when v @ v lies in this range
_SQUARE_MIN = 2.0 ** -900
_SQUARE_MAX = 2.0 ** 900
_BOUND = "its translated bound"
# the squared norms are summed over consecutive rows storing at most this
# many entries at a time, so their temporaries stay near 0.5 MB each
_BLOCK_ELEMENTS = 2 ** 16


class InequalitySystem:
    """Inequality system ``A x <= b`` with its rows stored once as CSR
    arrays and cached squared row norms.

    ``InequalitySystem(a, b)`` takes a dense ``(m, n)`` array-like;
    ``InequalitySystem((indptr, indices, data), b, n=n)`` takes the CSR
    rows of an m x n matrix (see the module docstring), which must store no
    zero.  Either way the system keeps ``indptr`` as intp, ``data`` as
    float64, without exact zeros, and the columns ``_indices`` as intp, or
    None when every row is fully stored: such rows are only read as
    ``(h, n)`` views of ``data``.  :attr:`indices` gives the columns, built
    on each read when none are kept, and :attr:`a` the dense matrix, built
    on each read; set-up and the row pass read neither.

    Every coefficient row must be non-zero, every coefficient and bound
    finite.  Instances are treated as immutable: a translation goes through
    :func:`modap.dynamics.translate`, whose :class:`Translated` keeps this
    system as it is and shares every array of it.

    The slots hold the stored rows, ``b``, the cached ``row_norms_sq`` (a
    one-entry row's is its rounded square, the exactly rounded sum that
    :func:`~modap.summation.row_sums` would give it) and ``row_norms``, and
    what the row pass's settle test (module docstring) would otherwise
    rebuild on every pass: the per-row thresholds ``_norm_thresholds``
    (theta^n) and the scalar ``_floor_threshold`` (theta^d), fixed here,
    rounded up; and ``_layouts``, each row range's :class:`_Layout`, built on
    the range's first pass and kept.  A layout is derived from ``indptr``
    and ``n`` alone and holds offsets, not views, so it serves every
    snapshot that shares the system (:meth:`_estimate`).  The guard against
    a non-finite or huge estimate is one comparison per pass and stores
    nothing.
    """

    __slots__ = ("n", "indptr", "_indices", "data", "b", "row_norms_sq", "row_norms",
                 "_norm_thresholds", "_floor_threshold", "_layouts")

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
        for i in np.flatnonzero(~np.isfinite(b)).tolist():
            raise ValueError(f"bound of row {i} is not finite: {float(b[i])!r}")
        self.n, self.indptr, self._indices, self.data, self.b = n, indptr, indices, data, b
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
        with np.errstate(over="ignore"):  # an infinite square is reported below
            norms_sq = self._squared_norms()
        for i in np.flatnonzero(norms_sq == math.inf).tolist():  # a square overflows
            raise ValueError(f"row {i}: its squared norm overflows float64")
        for i in np.flatnonzero(norms_sq == 0.0).tolist():
            raise ValueError(f"row {i}: its squared norm underflows float64")
        self.row_norms_sq = norms_sq
        self.row_norms = np.sqrt(norms_sq)
        # the settle thresholds (module docstring): kappa >= c / (1 - c) and
        # N_i >= ||a_i||, since ||a_i||^2 <= (norms_sq + (n + 1) 2^-1022) /
        # (1 - u)^2 (each square and their sum round once, losing at most
        # 2^-1022 to underflow); each rounding below is covered by a slack
        kappa = (n + 8) * _TWO_U / (1.0 - (n + 8) * _TWO_U) * _NORM_SLACK
        norm_bounds = np.sqrt(norms_sq + (n + 1) * _MIN_NORMAL) * _NORM_SLACK
        self._norm_thresholds = norm_bounds * kappa
        self._floor_threshold = _D_OVER_C * kappa
        self._layouts = {}

    @property
    def m(self) -> int:
        return self.indptr.size - 1

    @property
    def indices(self) -> np.ndarray:
        """The stored entries' columns (intp); for a fully stored system,
        which keeps none, ``np.tile(np.arange(n), m)`` built on each read."""
        if self._indices is None:
            return np.tile(np.arange(self.n, dtype=np.intp), self.m)
        return self._indices

    @property
    def a(self) -> np.ndarray:
        """The dense ``(m, n)`` coefficient matrix, built anew on each read."""
        return _scattered(*self._gather(range(self.m)), self.n)

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
            return (self.data[first:last], self._indices[first:last],
                    self.indptr[lo:hi] - first)
        offsets = self.indptr[rows]
        counts = self.indptr[rows + 1] - offsets
        starts = np.cumsum(counts) - counts
        pos = np.arange(counts.sum()) + np.repeat(offsets - starts, counts)
        return self.data[pos], self._indices[pos], starts

    def _estimate(self, y: np.ndarray, start: int, stop: int) -> np.ndarray:
        """``A[start:stop] y`` in float64, a new array, read through the
        range's :class:`_Layout`, built on the first call for the range and
        then kept: a matrix-vector product on a block; on CSR segments the
        entrywise products, which are the one-entry rows' estimates, and
        ``np.add.reduceat`` over the segments of the wider rows only, with
        the bits of one ``np.add.reduceat`` over every segment.

        The memo keeps every range it builds.  A solve reads the whole range
        or the K ranges of its engine's partition, so a system that the
        sequential solver and one K-block engine share holds K + 1 layouts."""
        layout = self._layouts.get((start, stop))
        if layout is None:
            layout = _range_layout(self.indptr[start:stop + 1], self.n)
            self._layouts[start, stop] = layout
        first, last, block, starts, wide, cuts = layout
        values = self.data[first:last]
        if block:
            return values.reshape(stop - start, self.n) @ y
        products = values * y.take(self._indices[first:last])
        if starts is None:
            return products
        out = products.take(starts)
        out[wide] = np.add.reduceat(products, cuts)[::2]
        return out

    def _squared_norms(self) -> np.ndarray:
        """``||a_i||^2`` of every row.  A row that stores one entry a takes
        ``fl(a a)``, the exactly rounded sum of its one square; the rows
        that store more are summed by :func:`_dots`, as many rows at a time
        as store at most :data:`_BLOCK_ELEMENTS` entries (one row at
        least).  Every row has an entry."""
        firsts = self.data[self.indptr[:-1]]
        out = firsts * firsts
        counts = self.indptr[1:] - self.indptr[:-1]
        wide = np.flatnonzero(counts > 1)
        ends = np.cumsum(counts[wide])  # the entries stored up to each wide row
        lo = 0
        while lo < wide.size:
            done = ends[lo - 1] if lo else 0
            hi = max(int(np.searchsorted(ends, done + _BLOCK_ELEMENTS, side="right")), lo + 1)
            rows = wide[lo:hi]
            out[rows] = _dots(rows, self._gather(rows), None, ["its squared norm"])[0]
            lo = hi
        return out

    def __repr__(self) -> str:
        return f"InequalitySystem(m={self.m}, n={self.n}, nnz={self.data.size})"


class Translated(NamedTuple):
    """A system whose region is ``system``'s translated by ``shift`` = v:
    ``A x <= b + A v``, held as the base system and v, so it costs O(n) and
    shares every stored array.  Built by :func:`modap.dynamics.translate`,
    which validates v; the row pass reads it as ``A (x - v) - b`` and
    builds the bound ``b_i + <a_i, v>`` of its exact rows only."""

    system: InequalitySystem
    shift: np.ndarray

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def m(self) -> int:
        return self.system.m


class _Layout(NamedTuple):
    """How :meth:`InequalitySystem._estimate` reads one row range; the
    rows' entries are ``data[first:last]``.  ``block``: every row is fully
    stored.  Otherwise ``starts`` holds the offsets at which the rows
    begin, None when each row stores one entry; ``wide`` the rows that
    store more; ``cuts`` each wide row's first and end offsets in turn,
    for ``np.add.reduceat``, whose sums at even positions are then the
    wide rows'; an end at the last entry is left out, as the last sum runs
    to it anyway."""

    first: int
    last: int
    block: bool
    starts: np.ndarray | None
    wide: np.ndarray | None
    cuts: np.ndarray | None


def _range_layout(bounds: np.ndarray, n: int) -> _Layout:
    """The :class:`_Layout` of the rows whose ``indptr`` slice is
    ``bounds``."""
    first, last = int(bounds[0]), int(bounds[-1])
    rows = bounds.size - 1
    if last - first == rows * n:
        return _Layout(first, last, True, None, None, None)
    if last - first == rows:  # no row is empty, so each stores one entry
        return _Layout(first, last, False, None, None, None)
    starts = bounds[:-1] - first
    wide = np.flatnonzero(np.diff(bounds) > 1)
    cuts = np.column_stack([starts[wide], bounds[wide + 1] - first]).reshape(-1)
    if cuts[-1] == last - first:
        cuts = cuts[:-1]
    return _Layout(first, last, False, starts, wide, cuts)


def _dense_to_csr(a):
    """``n`` and the CSR arrays of a dense ``(m, n)`` array-like.  A matrix
    with no zero gets no column array (None): its columns are ``arange(n)``
    in every row.  Its data is a copy of the matrix, 64-byte aligned, which
    OpenBLAS reads faster: a 1000 x 100 matrix-vector product took 15-18 us
    aligned and 22-23 us at a 16-byte offset (2-vCPU x86-64 VM, numpy 2.4
    with OpenBLAS 0.3.31)."""
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
    return n, (indptr, None, data)


def _checked_csr(rows, n: int):
    """Copies of CSR arrays ``(indptr, indices, data)``, checked, as intp
    and float64; the columns are None when every row is fully stored, so
    such a system never copies them."""
    indptr, indices = (_index_array(part, what) for part, what in zip(rows, ("indptr", "columns")))
    indptr = indptr.astype(np.intp)
    data = np.array(rows[2], dtype=np.float64).reshape(-1)
    if n < 1 or indptr.size < 2:
        raise ValueError(f"system must have m >= 1 rows and n >= 1 columns, got "
                         f"({indptr.size - 1}, {n})")
    if (indptr[0] != 0 or indptr[-1] != data.size or indices.size != data.size
            or (indptr[1:] < indptr[:-1]).any()):
        raise ValueError("CSR indptr must ascend from 0 to len(data) = len(indices)")
    ascending = indices[1:] > indices[:-1]
    starts = indptr[1:-1]
    ascending[starts[(starts > 0) & (starts < data.size)] - 1] = True  # row boundaries
    if not ascending.all() or (indices < 0).any() or (indices >= n).any():
        raise ValueError(f"CSR columns must lie in [0, {n}) and ascend within each row")
    if not data.all():
        raise ValueError("CSR rows must store no zero coefficient")
    full = data.size == (indptr.size - 1) * n
    return indptr, None if full else indices.astype(np.intp), data


def _index_array(part, what: str) -> np.ndarray:
    """``part`` as a 1-D integer array, a view when it holds integers, else
    an intp copy; a value that is not an integer raises ``ValueError``
    instead of being truncated."""
    raw = np.asarray(part).reshape(-1)
    if raw.dtype.kind in "biu":
        return raw
    with np.errstate(invalid="ignore"):  # nan and inf are reported below
        out = raw.astype(np.intp)
    if not (out == raw).all():
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
    sum that overflows, or products that overflow with both signs, raise
    ``ValueError`` with a message naming the row and ``whats[j]`` for the
    j-th y, the first y first.  The caller silences overflow warnings."""
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
                raise ValueError(f"row {rows[k % len(rows)]}: {whats[k // len(rows)]} "
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


def _as_point(v, n: int, what: str = "point") -> np.ndarray:
    """The one check of a point given to the package: v as a float64 copy of
    shape ``(n,)``, or ``ValueError`` naming ``what`` if not, or not finite."""
    arr = np.array(v, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"dimension mismatch: {what} has shape {arr.shape}, expected ({n},)")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
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
    and stay normal, and the factor covers all three.  The zero vector
    (``+0.0`` and ``-0.0`` entries) gives 0.  Any other s (0, not finite,
    or where the underflow term or the range would matter) falls back to
    ``math.hypot``, which is within one ulp (2^-1074 for a subnormal
    result) and does not overflow or underflow on the way.  The caller
    silences overflow warnings.
    """
    s = float(v @ v)
    if _SQUARE_MIN <= s <= _SQUARE_MAX:
        return math.sqrt(s) * (1.0 + (v.size + 4) * _TWO_U)
    if not s and not v.any():
        return 0.0
    h = math.hypot(*v.tolist())
    return h * _NORM_SLACK + 2.0 ** -1074 if h else 0.0


def _point(shift, x: np.ndarray) -> tuple[np.ndarray, float]:
    """x as the settle test reads it on a system translated by ``shift``
    (None: not translated): ``y = x`` or ``fl(x - v)``, and the bound S on
    ``||x||`` (+ ``||v||``), see the module docstring.  Every row range of
    one snapshot and point shares it.  The caller silences floating-point
    warnings."""
    if shift is None:
        return x, _norm_bound(x)
    return x - shift, _norm_bound(x) + _norm_bound(shift)


def _unsettled_rows(sys: InequalitySystem, shift, x: np.ndarray, start: int, stop: int,
                    point=None):
    """Rows in [start, stop) that the settle test cannot prove satisfied at
    x, for ``sys`` translated by ``shift`` (None: not translated; see the
    module docstring for the test and its proof), ascending and counted
    from start.  ``point`` is :func:`_point`'s ``(y, S)`` for shift and x,
    formed here when None.  The caller silences floating-point warnings."""
    y, s = _point(shift, x) if point is None else point
    t = sys._estimate(y, start, stop)
    t -= sys.b[start:stop]
    settled = t >= -_FILTER_LIMIT
    if s:
        threshold = sys._norm_thresholds[start:stop] * s
        threshold += sys._floor_threshold
        t += threshold
    settled &= t <= 0.0
    return (~settled).nonzero()[0]


def violated_slices(
    snap: InequalitySystem | Translated, x: np.ndarray, start: int = 0,
    stop: int | None = None, point=None,
) -> tuple[np.ndarray, float]:
    """One filtered pass over rows [start, stop) of a system or a
    :class:`Translated` one: the violated rows' slice vectors stacked
    ``(h, n)`` in ascending row order, and the largest normalized violation
    ``r_i / ||a_i||`` among them (0 when h = 0).

    Internal kernel shared by the sequential solver and the engine's row
    blocks; both must evaluate each row identically for parallel runs to
    reproduce sequential ones bit for bit.  A maximum does not depend on
    order, so the maxima of covering partial passes give the full pass's
    bits.  ``point`` is x prepared for the snapshot's settle test, which
    :func:`modap.bsf_engine.superstep` forms once for all its row ranges;
    None forms it here.  The pass writes to nothing it is given.  A row
    whose exact residual or bound overflows float64 raises ``ValueError``
    naming it.  The caller silences floating-point warnings: a row whose
    estimate or bound is not finite takes the exact path, and a non-finite
    slice fails the step's check.
    """
    sys, shift = snap if isinstance(snap, Translated) else (snap, None)
    if stop is None:
        stop = sys.m
    rows = _unsettled_rows(sys, shift, x, start, stop, point)
    if not rows.size:
        return np.zeros((0, sys.n)), 0.0
    if start:
        rows += start
    gathered = sys._gather(rows)
    if rows.size == 1:
        return _lone_row(sys, shift, x, rows, gathered)
    if shift is None:
        (r,) = _dots(rows, gathered, x[None], ["its residual"])
        r -= sys.b[rows]
    else:
        r, bounds = _dots(rows, gathered, np.array((x, shift)),
                          ["its residual", _BOUND])
        bounds += sys.b[rows]
        finite = np.isfinite(bounds)
        if not finite.all():
            raise ValueError(f"row {rows[finite.argmin()]}: {_BOUND} overflows float64")
        r -= bounds
    # a block is multiplied as it is stored; segments are spread first
    a = gathered[0] if gathered[2] is None else _scattered(*gathered, sys.n)
    hit = r > 0.0
    if np.count_nonzero(hit) < hit.size:  # a fraction of hit.all()'s cost
        r, rows, a = r[hit], rows[hit], a[hit]
    block = (r / sys.row_norms_sq[rows])[:, None] * a
    worst = float((r / sys.row_norms[rows]).max()) if r.size else 0.0
    return block, worst


def _lone_row(sys: InequalitySystem, shift, x: np.ndarray, rows: np.ndarray,
              gathered: tuple) -> tuple[np.ndarray, float]:
    """:func:`violated_slices` for its one unsettled row ``rows[0]``: the
    exact sums as for many rows, the rest in Python floats, which round as
    numpy's float64 operations do, so the bits, errors and messages are
    the same.  No division raises, as every cached squared norm is
    positive."""
    i = int(rows[0])
    if shift is None:
        r = _dots(rows, gathered, x[None], ["its residual"]).item() - sys.b.item(i)
    else:
        (r,), (w,) = _dots(rows, gathered, np.array((x, shift)),
                           ["its residual", _BOUND]).tolist()
        bound = w + sys.b.item(i)
        if not math.isfinite(bound):
            raise ValueError(f"row {i}: {_BOUND} overflows float64")
        r -= bound
    if not r > 0.0:
        return np.zeros((0, sys.n)), 0.0
    a = gathered[0] if gathered[2] is None else _scattered(*gathered, sys.n)
    return (r / sys.row_norms_sq.item(i)) * a, r / sys.row_norms.item(i)


def _rescaled(v: np.ndarray, norm: float, length: float) -> np.ndarray:
    """``(length / norm) * v``, or ``length * (v / norm)`` when a tiny norm
    makes the factor overflow, so that v keeps a finite length."""
    factor = length / norm
    return factor * v if factor < math.inf else length * (v / norm)


def eps_membership(sys: InequalitySystem | Translated, x, eps: float) -> bool:
    """True iff every row is satisfied or violated by less than ``eps``."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return max_relative_violation(sys, x) < eps


def max_relative_violation(sys: InequalitySystem | Translated, x) -> float:
    """Largest normalized positive residual, 0 for a feasible point.

    Scaling a row and its bound by ``c = 2^k`` leaves the value, and so
    every eps decision, bit-identical while the scaled products, sums and
    norms stay normal.  Any other positive factor rounds the scaled entries:
    the value then agrees only within rounding, and a decision on a value
    within rounding of eps may differ.
    """
    x = _as_point(x, sys.n)
    with np.errstate(all="ignore"):  # the pass's own rule, see violated_slices
        return violated_slices(sys, x)[1]


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
    The caller silences floating-point warnings (the solvers' loop holds
    one scope for a whole solve); an overflowing square is still rescaled.
    """
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
