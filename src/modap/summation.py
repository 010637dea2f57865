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
of a 2-D block, vectorised over the whole block.  It runs one error-free
extraction level of AccSum (Rump, Ogita and Oishi, "Accurate floating-point
summation part I: faithful rounding", SISC 31(1), 2008) and bounds the rest.
For a row p of ``n <= 2^M`` addends (``M >= 1``) and a power of two
``sigma > 2^M max|p|``, ``q = (sigma + p) - sigma`` is exact, a multiple of
``u sigma`` (``u = 2^-53``) and at most ``2^-M sigma``, so the q of a row
sum exactly in any order to ``tau_1``; the remainders ``r = p - q`` are
exact and at most ``u sigma``.  Any order sums them to a ``tau_2`` within
``gamma_{n-1} sum|r|``, ``gamma_k = k u / (1 - k u)``, of their exact sum
(Higham, "Accuracy and Stability of Numerical Algorithms", 2002, sec. 4.2),
subnormal remainders included, since an addition with a subnormal result is
exact.  So ``B = 2 n u * n u sigma`` bounds that error; the 2 covers
``gamma_{n-1} <= 2 n u`` (``n <= 2^52``) and rounding ``n^2``.  TwoSum
splits ``tau_1 + tau_2`` exactly into ``res + delta``, ``res`` their rounded
sum, the rounded exact sum if ``|delta| + B`` is less than half the gap from
``res`` to its nearer neighbour.  A sum on a midpoint (0.7 % of the rows of
a standard normal ``(1000, 100)`` block) fails this test however small B
is, so undecided rows take a second level on their remainders: ``sigma_2 =
2^(M-53) sigma`` meets the same precondition, and at most ``n u sigma_2``
is left after it.  If nothing is, ``res`` is the rounding of the exact
``tau_1 + tau_2``, ties to even included; otherwise that bound is B.  This
is a floating-point filter in the sense of Shewchuk (DCG 18, 1997): rows it
cannot decide (sums near a midpoint, rows of zeros, where ``math.fsum``
fixes the sign, non-finite addends, and a row maximum outside ``[2^-900,
2^900]``, where the extraction could overflow or the gaps and bounds leave
the normal range) go to ``math.fsum`` (Shewchuk's expansion arithmetic, in
C), as do blocks too small for the vectorised path's fixed cost to pay off
(:data:`SMALL_BLOCK`).  An exactly rounded sum is unique, so both paths
give the same bits, and since every sum that could overflow or meets an
infinity is left to ``math.fsum``, so are the errors.  Both need IEEE-754
round-to-nearest, which CPython and numpy guarantee for float64.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["exact_dot", "row_sums", "column_sums"]

# a block whose element count plus four times its row count is below this
# is summed by one math.fsum per row.  Measured on a 2-vCPU Xeon VM (Python
# 3.11, numpy 2.4): fsum costs about 0.045 us per element plus 0.18 us per
# row, the vectorised path about 50 us plus 0.003 us per element, so
# (1, 1000) stays on fsum and a column sum of one 1000-wide slice does not
SMALL_BLOCK = 1200
_U = 2.0 ** -53
# a row maximum in this range keeps every sigma, bound and gap normal
_MIN_MAX = 2.0 ** -900
_MAX_MAX = 2.0 ** 900


def exact_dot(u: np.ndarray, v: np.ndarray) -> float:
    """Exactly rounded inner product of two equal-length 1-D float arrays.

    The elementwise products round individually (ordinary IEEE multiply);
    their sum is exactly rounded, so the result is a pure function of the
    operand values.
    """
    with np.errstate(over="ignore"):  # fsum handles infinite products
        return math.fsum((u * v).tolist())


def row_sums(block: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each row of an ``(h, n)`` float64 block.

    Equal bit for bit to ``math.fsum`` of each row, including its
    ``OverflowError`` (a finite row whose sum overflows) and ``ValueError``
    (``inf`` and ``-inf`` in one row); see the module docstring.
    """
    h, n = block.shape
    if n == 0 or block.size + 4 * h < SMALL_BLOCK:
        return np.array([math.fsum(row) for row in block.tolist()],
                        dtype=np.float64).reshape(h)
    with np.errstate(all="ignore"):  # undecided rows are redone by fsum
        top = np.maximum(block.max(axis=1), -block.min(axis=1))
        ok = (top >= _MIN_MAX) & (top <= _MAX_MAX)
        m_bits = max(1, (n - 1).bit_length())  # 2^M >= n, M >= 1
        sigma = np.ldexp(1.0, np.frexp(np.where(ok, top, 1.0))[1] + m_bits)[:, None]
        q = sigma + block
        q -= sigma
        tau1 = q.sum(axis=1)
        q -= block  # minus the remainders, exactly
        bound = n * n * 2.0 ** -105 * sigma[:, 0]  # B = 2 n u * n u sigma
        res, sure = _rounded(tau1, -q.sum(axis=1), bound)
        again = np.flatnonzero(ok & ~sure)
        if again.size:
            res[again], sure[again] = _level2(q[again], sigma[again], tau1[again], m_bits)
    for i in np.flatnonzero(~(ok & sure)).tolist():
        res[i] = math.fsum(block[i].tolist())
    return res


def _rounded(tau1: np.ndarray, tau2: np.ndarray, bound: np.ndarray):
    """``fl(tau1 + tau2)``, and whether every real number within ``bound`` of
    ``tau1 + tau2`` rounds to it."""
    res = tau1 + tau2
    z = res - tau1
    delta = (tau1 - (res - z)) + (tau2 - z)  # TwoSum: tau1 + tau2 = res + delta
    mag = np.abs(res)
    return res, np.abs(delta) + bound < 0.5 * (mag - np.nextafter(mag, 0.0))


def _level2(rest: np.ndarray, sigma: np.ndarray, tau1: np.ndarray, m_bits: int):
    """Level 2 on minus the remainders of undecided rows; overwrites ``rest``."""
    sigma = sigma * 2.0 ** (m_bits - 53)  # |rest| <= 2^-53 sigma = 2^-M sigma_2
    q = sigma + rest
    q -= sigma
    rest -= q
    res, sure = _rounded(tau1, -q.sum(axis=1), rest.shape[1] * _U * sigma[:, 0])
    return res, sure | ~rest.any(axis=1)


def column_sums(block: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each column of an ``(h, n)`` block of slices.

    ``h = 0`` gives ``zeros(n)``.  A column whose exact sum is zero gives
    ``+0.0`` (the ``+ 0.0`` fixes the sign that ``math.fsum`` gives a column
    of only ``-0.0``), so the result depends on the multiset of rows alone.
    Raises ``ValueError`` when a column's exact sum overflows float64.
    """
    try:
        return row_sums(block.T) + 0.0
    except OverflowError as exc:
        raise ValueError("the sum of the violated rows' slices overflows float64") from exc
