"""Shared test helpers.

The brute-force checks here are deliberately independent of the package's
numeric kernels: plain Python loops over plain floats, so they can serve as
oracles for the library paths they verify.
"""

import math

import numpy as np
import pytest

from modap import InequalitySystem, SolverConfig, solve


def brute_force_max_violation(a_rows, b_vals, x):
    """Largest normalized positive residual, computed with plain Python."""
    worst = 0.0
    for row, bound in zip(a_rows, b_vals):
        acc = 0.0
        norm_sq = 0.0
        for aj, xj in zip(row, x):
            acc += aj * xj
            norm_sq += aj * aj
        r = acc - bound
        if r > 0.0:
            v = r / math.sqrt(norm_sq)
            if v > worst:
                worst = v
    return worst


def brute_force_feasible(system: InequalitySystem, x, eps: float) -> bool:
    """Checks every inequality of the system at precision eps, independently
    of the library's membership test."""
    a = [list(map(float, row)) for row in system.a]
    b = [float(v) for v in system.b]
    return brute_force_max_violation(a, b, [float(v) for v in x]) < eps


def random_feasible_system(rng, n, m, margin_lo=2.0, margin_hi=4.0, center_lo=4.0, center_hi=8.0):
    """Random dense system with a known strictly interior point.

    Margins are wide enough (relative to row norms ~ sqrt(n)) that the
    fixed-step variant with unit step length converges instead of orbiting
    the feasible region.  Returns (system, interior_point).
    """
    a = rng.normal(size=(m, n))
    norms = np.linalg.norm(a, axis=1)
    for i in np.nonzero(norms < 0.3)[0]:
        a[i, i % n] += 1.0
    x_star = rng.uniform(center_lo, center_hi, size=n)
    b = a @ x_star + rng.uniform(margin_lo, margin_hi, size=m)
    return InequalitySystem(a, b), x_star


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


# the smallest positive float64
ONE_ITERATION_EPS = 5e-324


def one_iteration(system, x, variant, step_length=1.0):
    """A traced solve from x stopped after one iteration.  Its eps, the
    smallest positive float, makes it step whenever the largest normalized
    violation does not round to 0; a row violated by less, such as
    ``[[2.0]] x <= [5e-324]`` at ``x = [5e-324]``, counts as converged."""
    config = SolverConfig(variant=variant, step_length=step_length, eps=ONE_ITERATION_EPS,
                          max_iterations=1, record_trace=True, initial_point=x)
    return solve(system, config)
