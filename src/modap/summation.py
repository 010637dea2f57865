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

Both functions use ``math.fsum`` (Shewchuk's expansion arithmetic, DCG 18,
1997, in C), which requires IEEE-754 round-to-nearest; CPython guarantees
it for float64.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["exact_dot", "column_sums"]


def exact_dot(u: np.ndarray, v: np.ndarray) -> float:
    """Exactly rounded inner product of two equal-length 1-D float arrays.

    The elementwise products round individually (ordinary IEEE multiply);
    their sum is exactly rounded, so the result is a pure function of the
    operand values.
    """
    return math.fsum((u * v).tolist())


def column_sums(block: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each column of an ``(h, n)`` block of slices.

    ``h = 0`` gives ``zeros(n)``.  A column whose exact sum is zero gives
    ``+0.0`` (the ``+ 0.0`` fixes the sign that ``math.fsum`` gives a column
    of only ``-0.0``), so the result depends on the multiset of rows alone.
    Raises ``ValueError`` when a column's exact sum overflows float64.
    """
    try:
        sums = [math.fsum(col) + 0.0 for col in block.T.tolist()]
    except OverflowError as exc:
        raise ValueError("the sum of the violated rows' slices overflows float64") from exc
    return np.array(sums, dtype=np.float64)
