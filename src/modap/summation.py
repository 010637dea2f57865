"""Exactly rounded float64 sums.

Every row-level reduction in the solver (inner products, squared norms, and
the sum of violation slices) is computed with exactly rounded summation,
i.e. the result is the correctly rounded value of the exact real sum.  An
exactly rounded sum depends only on the multiset of addends, never on
evaluation order, grouping, or SIMD backend.  This is what lets the
master-worker engine return bit-identical iterates for any worker count:
each worker reports the slices of its violated rows, the master stacks the
reports in whatever order they arrive, and :func:`column_sums` rounds each
coordinate's sum once.

Bulk sums go through :func:`row_sums`, the exactly rounded sum of each row
of a 2-D block, or of each segment of a 1-D array given the segments'
start offsets (the rows of a sparse row set, however ragged), vectorised
over the whole block or array.  It runs one error-free
extraction level of AccSum (Rump, Ogita and Oishi, "Accurate
floating-point summation part I: faithful rounding", SISC 31(1), 2008) and
bounds the rest.  For a row p of ``n <= 2^M`` addends (``M >= 1``) and a
power of two ``sigma > 2^M max|p|``, ``q = (sigma + p) - sigma`` is exact,
a multiple of ``u sigma`` (``u = 2^-53``) and at most ``2^-M sigma``, so
the q of a row sum exactly in any order to ``tau_1``; the remainders ``r =
p - q`` are exact and at most ``u sigma``.  Any order sums them to a
``tau_2`` within ``gamma_{n-1} sum|r|``, ``gamma_k = k u / (1 - k u)``, of
their exact sum (Higham, "Accuracy and Stability of Numerical Algorithms",
2002, sec. 4.2), subnormal remainders included, since an addition with a
subnormal result is exact.  So ``B = 2 n u * n u sigma`` bounds that
error; the 2 covers ``gamma_{n-1} <= 2 n u`` (``n <= 2^52``) and rounding
``n^2``.  TwoSum splits ``tau_1 + tau_2`` exactly into ``res + delta``,
``res`` their rounded sum, the rounded exact sum if ``|delta| + B`` is less
than half the gap from ``res`` to its nearer neighbour.  The decision costs
about a dozen numpy calls whatever the row count, so a block of up to
:data:`FEW_ROWS` rows takes it one row at a time in Python floats instead,
with the same roundings (TwoSum, and ``math.nextafter`` for the gap), so
the same bits; when that decides every row, the sums return as one array.
Segments decide with numpy at any count.
This is a floating-point filter in the sense of Shewchuk (DCG 18, 1997).
A sum on a midpoint fails the test however small B is, and so does a zero
sum, whose gap is 0; such rows go to ``math.fsum``, with one exception on
a block.  A block row whose remainders are all zero is its q alone, so
``tau_1`` is its exact sum and ``res = tau_1 + tau_2``, with ``tau_2`` a
sum of zeros, is its exactly rounded sum: ``tau_1``, with ``+0.0`` for a
zero sum.  That decides the zero, ``-0.0``-only and exactly cancelling
rows on the block's scale, such as the empty columns of a sparse slice
block, at the cost of one ``any`` over the undecided rows' remainders.

Level 1 takes its two sums as products with a ones vector, ``q @
ones``, which numpy hands to BLAS (or, on some strides, to its own loop);
that costs about half of ``q.sum(axis=1)``, and leaves the order, the
grouping and any fused multiply-adds to BLAS.  The proof above allows all
of them: every partial sum of a row's q is a multiple of ``u sigma`` no
larger than sigma in magnitude, so it is representable and ``tau_1`` is
exact; the bound on ``tau_2`` holds for any order; and a multiply-add by
1.0 rounds once, as an addition does.  Segments take their sums with
``np.add.reduceat`` over the segment starts instead, in numpy's order,
which the same argument allows, with n and M those of the widest segment,
since a bound for n addends holds for fewer.  A block keeps ``q @ ones``:
on ``(160, 100)`` and ``(243, 100)`` blocks ``reduceat`` costs twice as much.

Nothing above needs sigma to be the smallest power of two that fits a row,
so :func:`row_sums` takes one sigma for the whole block, from its largest
magnitude ``top``: ``sigma = 2^(e + M)`` with ``top < 2^e`` exceeds ``2^M
max|p|`` for every row p of the block at once.  Level 1 then runs as
flat operations with one scalar, which cost about a third of the same
operations with a column of per-row sigmas.  The order of the paths is:

1. a block whose ``top`` is zero holds only ``+0.0`` and ``-0.0``, and
   every row sums to ``+0.0``, as fsum gives it;
2. level 1, when ``top`` lies in ``[2^-900, 2^900]``, and on a block the
   rule for rows without remainders; a one-entry segment is its own sum,
   so only the segments of two or more addends take the level-1 test.
   When level 1 decides every row, the sums return at once;
3. ``math.fsum`` (Shewchuk's expansion arithmetic, in C) for the rows
   level 1 leaves (sums near a midpoint, zero sums with remainders, and
   rows far below ``top``, whose gaps are smaller than B), and for the
   whole block when ``top`` is not finite or lies outside that range,
   where the extraction could overflow or the gaps and bounds leave the
   normal range.

A row far below the scale of its block thus costs one ``math.fsum`` on top
of its share of the block pass.  Blocks too small for the vectorised
path's fixed cost to pay off (fewer addends than :data:`SMALL_BLOCK`) go
straight to ``math.fsum``; a one-column block, or segments of one
addend each, are their own sums, plus ``+0.0`` for fsum's sign of zero, as
is any one-entry segment among wider ones.
An exactly rounded sum is unique, so every path gives the same bits, and
since every sum that could overflow or meets an infinity is left to
``math.fsum``, so are the errors.  Nor does the vectorised path raise a
floating-point exception: it runs only on finite addends of at most
``2^900``, where sigma stays below ``2^965`` and every sum, remainder,
bound and gap is finite, so it needs no ``np.errstate`` of its own.  All
need IEEE-754 round-to-nearest, which CPython and numpy guarantee for
float64.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["exact_dot", "row_sums", "column_sums"]

# a block of fewer elements than this is summed by one math.fsum per row.
# scripts/sum_kernel.py times both paths (BENCH_summation.json; 2-vCPU Xeon
# VM, Python 3.11, numpy 2.4): fsum about 0.03 us per element, the
# vectorised path about 9 us plus a few ns per element, and one fsum more
# per row on a midpoint, which is common in rows of 16 or fewer addends.
# Fitted as c0 + c1 size + c2 h, the two cross at size + k h with k within
# 0.6 of 0 and size between 438 and 556 over five runs (between 389 and
# 470, k within 0.4 of 0, over six later runs), so the cut-off counts
# elements only: a lone row of 1000, such as one norm at n = 1000, is
# vectorised (10 us against 30 us by fsum), a row of 100 is not (3.3
# against 8.4 us)
SMALL_BLOCK = 500
# a block of at most this many rows decides level 1 in Python floats, not
# numpy: the forms cost the same at 15.4 to 16.2 rows (15.6 to 18.4 over six
# later runs), and on 2 rows 1.9 us against 5.5 us.  It returns its sums at
# once when that decides every row.  Segments always take numpy's form: only
# a region that outruns the iterate sends them decisions, a few per pass
FEW_ROWS = 16
# a block maximum in this range keeps every sigma, bound and gap normal
_MIN_MAX = 2.0 ** -900
_MAX_MAX = 2.0 ** 900
_ones_shared = np.ones(0)  # see _ones


def exact_dot(u: np.ndarray, v: np.ndarray) -> float:
    """Exactly rounded inner product of two equal-length 1-D float arrays.

    The elementwise products round individually (ordinary IEEE multiply);
    their sum is exactly rounded, so the result is a pure function of the
    operand values.
    """
    with np.errstate(over="ignore"):  # fsum handles infinite products
        return math.fsum((u * v).tolist())


def row_sums(values: np.ndarray, starts: np.ndarray | None = None) -> np.ndarray:
    """Exactly rounded sum of each row of an ``(h, n)`` float64 block, or,
    given ``starts``, of each segment ``values[starts[i]:starts[i + 1]]``
    of a 1-D array (the last one ends at ``values.size``), where ``starts``
    ascends strictly from 0, so that no segment is empty.

    Equal bit for bit to ``math.fsum`` of each row, including its
    ``OverflowError`` (a finite row whose sum overflows) and ``ValueError``
    (``inf`` and ``-inf`` in one row); see the module docstring.
    """
    h = len(values) if starts is None else starts.size
    if values.size == h:  # fsum of one addend: the addend, with +0.0 for -0.0
        return values.reshape(h) + 0.0
    if values.size < SMALL_BLOCK:
        return _fsum_rows(values, starts)
    if starts is None:
        n = values.shape[1]
    else:
        counts = np.diff(starts, append=values.size)
        n = int(counts.max())  # the widest segment's
    q = np.abs(values)
    top = q.max()
    if top == 0.0:
        return np.zeros(h)
    if not _MIN_MAX <= top <= _MAX_MAX:  # also nan
        return _fsum_rows(values, starts)
    m_bits = max(1, (n - 1).bit_length())  # 2^M >= n, M >= 1
    sigma = math.ldexp(1.0, math.frexp(top)[1] + m_bits)
    ones = _ones(n)
    np.add(values, sigma, out=q)
    q -= sigma
    tau1 = q @ ones if starts is None else np.add.reduceat(q, starts)
    np.subtract(values, q, out=q)  # the remainders, exactly
    tau2 = q @ ones if starts is None else np.add.reduceat(q, starts)
    bound = n * n * 2.0 ** -105 * sigma  # B = 2 n u * n u sigma
    if starts is None and h <= FEW_ROWS:
        res, sure = _decided(tau1.tolist(), tau2.tolist(), bound)
        if all(sure):  # a few rows, all decided: no bookkeeping
            return np.array(res)
        res, sure = np.array(res), np.array(sure)
    elif starts is None:
        res, sure = _rounded_rows(tau1, tau2, bound)
    else:  # a one-entry segment is its own sum
        res, sure = values[starts] + 0.0, counts == 1
        many = np.flatnonzero(~sure)
        res[many], sure[many] = _rounded_rows(tau1[many], tau2[many], bound)
    if np.count_nonzero(sure) == h:  # a fraction of sure.all()'s cost
        return res
    left = np.flatnonzero(~sure)
    if starts is None:  # a row without remainders: res is its exact sum
        left = left[q[left].any(axis=1)]
    if left.size:
        res[left] = _fsum_rows(values, starts, left)
    return res


def _ones(n: int) -> np.ndarray:
    """A read-only vector of n ones, the weights of level 1's two sums: a
    view of one shared vector, rebuilt at twice its length or n, whichever
    is more, when it is shorter than n.  A slice block's width is its h,
    which changes from pass to pass, so a vector per width would be built
    on most passes; this builds O(log n) vectors over any run.  Threads
    that race here at worst build a vector more; each gets its n ones."""
    global _ones_shared
    ones = _ones_shared
    if ones.size < n:
        ones = np.ones(max(n, 2 * ones.size))
        ones.flags.writeable = False
        _ones_shared = ones
    return ones[:n]


def _fsum_rows(values: np.ndarray, starts, which=None) -> np.ndarray:
    """One ``math.fsum`` per row or segment (see :func:`row_sums`), of all
    of them or of the index array ``which``."""
    if starts is None:
        rows = (values if which is None else values[which]).tolist()
    else:
        flat, bounds = values.tolist(), starts.tolist() + [values.size]
        picks = range(starts.size) if which is None else which.tolist()
        rows = [flat[bounds[i]:bounds[i + 1]] for i in picks]
    return np.array([math.fsum(row) for row in rows], dtype=np.float64).reshape(len(rows))


def _rounded_rows(tau1: np.ndarray, tau2: np.ndarray, bound: float):
    """``fl(tau1 + tau2)``, and whether every real number within ``bound`` of
    ``tau1 + tau2`` rounds to it, with numpy, for any number of rows."""
    res = tau1 + tau2
    z = res - tau1
    delta = (tau1 - (res - z)) + (tau2 - z)  # TwoSum: tau1 + tau2 = res + delta
    mag = np.abs(res)
    return res, np.abs(delta) + bound < 0.5 * (mag - np.nextafter(mag, 0.0))


def _decided(tau1: list, tau2: list, bound: float) -> tuple[list, list]:
    """:func:`_rounded_rows` one row at a time in Python floats, for a block
    of a few rows: the same operations, as lists of floats and bools."""
    res, sure = [], []
    for a, b in zip(tau1, tau2):
        s = a + b
        z = s - a
        mag = abs(s)
        res.append(s)
        sure.append(abs((a - (s - z)) + (b - z)) + bound
                    < 0.5 * (mag - math.nextafter(mag, 0.0)))
    return res, sure


def column_sums(block: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each column of an ``(h, n)`` block of slices.

    ``h = 0`` gives ``zeros(n)``.  A column whose exact sum is zero gives
    ``+0.0`` (the ``+ 0.0`` fixes the sign that ``math.fsum`` gives a column
    of only ``-0.0``), so the result depends on the multiset of rows alone.
    Raises ``ValueError`` when a column's exact sum overflows float64 or
    holds both ``inf`` and ``-inf``.
    """
    try:
        return row_sums(block.T) + 0.0
    except (OverflowError, ValueError) as exc:
        raise ValueError("the sum of the violated rows' slices overflows float64") from exc
