"""Output checks made apart from the program.

Every check here works on plain Python floats with plain loops and
``math.fsum``; none calls into ``modap``.  Each returns ``None`` when the
output passes and a one-line description of the first problem otherwise.

Feasibility follows the program's documented tolerance: a row is accepted
when its residual ``<a_i, x> - b_i`` is at most 0 or, normalised by
``||a_i||``, below ``eps``.
"""

from __future__ import annotations

import math


def _row_problem(i: int, residual: float, norm: float, eps: float) -> str | None:
    if residual != residual or norm != norm:
        return f"row {i}: residual is NaN"
    if residual > 0.0 and residual / norm >= eps:
        return f"row {i}: normalised violation {residual / norm!r} >= eps {eps!r}"
    return None


def check_dense(a_rows, b_vals, x, eps: float) -> str | None:
    """Every row of ``A x <= b`` (lists of floats) holds within eps at x."""
    x = [float(v) for v in x]
    for i, (row, bound) in enumerate(zip(a_rows, b_vals)):
        if len(row) != len(x):
            return f"row {i}: length {len(row)} != point length {len(x)}"
        residual = math.fsum([aj * xj for aj, xj in zip(row, x)] + [-float(bound)])
        norm = math.sqrt(math.fsum([aj * aj for aj in row]))
        problem = _row_problem(i, residual, norm, eps)
        if problem:
            return problem
    return None


def check_model(x, box_upper: float, sum_upper: float, sum_lower: float,
                shift: float, eps: float) -> str | None:
    """Every row of the box-plus-slab model problem, translated by ``shift``
    in every coordinate, holds within eps at x.

    Closed form of the translated rows (``b' = b + A (shift, ..., shift)``):
    ``x_i <= box_upper + shift``, ``-x_i <= -shift``,
    ``sum x <= sum_upper + n shift`` and ``-sum x <= -sum_lower - n shift``;
    the two sum rows have norm ``sqrt(n)``, the others norm 1.
    """
    x = [float(v) for v in x]
    n = len(x)
    upper = box_upper + shift
    for i, xi in enumerate(x):
        problem = (_row_problem(i, xi - upper, 1.0, eps)
                   or _row_problem(n + i, shift - xi, 1.0, eps))
        if problem:
            return problem
    total = math.fsum(x)
    root_n = math.sqrt(n)
    return (_row_problem(2 * n, total - (sum_upper + n * shift), root_n, eps)
            or _row_problem(2 * n + 1, (sum_lower + n * shift) - total, root_n, eps))


def check_fixed_steps(step_norms, step_length: float, n: int) -> str | None:
    """Every fixed-step (modap) iteration moved the point by ``step_length``
    up to rounding.

    Starting from 0, iterate k has every coordinate within ``k * step_length``
    of 0, so rounding one coordinate of a step costs at most one ulp of
    ``K * step_length`` (K steps in all); the bound adds the rounding of the
    rescaled direction itself.
    """
    steps = [float(s) for s in step_norms]
    span = max(len(steps), 1) * step_length
    tol = 2.0 * math.sqrt(n) * math.ulp(span) + 8.0 * math.ulp(step_length)
    for k, s in enumerate(steps, start=1):
        if not abs(s - step_length) <= tol:
            return f"step {k}: norm {s!r} differs from {step_length!r} by more than {tol!r}"
    return None


def check_bit_identical(x, iterations: int, ref_x, ref_iterations: int) -> str | None:
    """Same iteration count and the same float64 bits in every coordinate."""
    if iterations != ref_iterations:
        return f"iterations {iterations} != reference {ref_iterations}"
    x, ref_x = list(x), list(ref_x)
    if len(x) != len(ref_x):
        return f"length {len(x)} != reference length {len(ref_x)}"
    for j, (u, v) in enumerate(zip(x, ref_x)):
        if float(u).hex() != float(v).hex():
            return f"coordinate {j}: {float(u)!r} != reference {float(v)!r}"
    return None
