"""Analytic per-iteration cost model and scalability bound for the engine.

The model prices one superstep of the master-worker iteration: the master
ships the current point to each worker, workers process the whole
constraint list between them, partial sums travel back, and the master
combines them, evaluates the stopping test, steps, and advances the
source.  From the counts and three machine constants it predicts
``k_max``, the worker count beyond which adding workers no longer speeds
the iteration up.

Counting convention (one operation per scalar multiply, add/subtract,
compare, or divide), per constraint row of the map stage:

    inner product <a_i, x>      n multiplies + (n - 1) adds
    subtract the bound          1
    threshold comparison        1
    squared row norm            n multiplies + (n - 1) adds
    divide by the norm          1
    scale the row               n multiplies
    ------------------------------------------------------
    total                       5n + 1

The tally prices the squared norm as recomputed per application even though
the implementation caches it; the model's constants are kept as stated so
its predictions stay comparable, and the instrumented cross-check in the
test suite counts this exact tally.

Transfer counts: the master sends the n-vector point plus the update
payload (1 value when a single entry of the source data changes per
iteration, (n + 1) m when all of it does), and receives one n-vector per
worker.

The master makes no row pass: the workers' reports carry the largest
violation, so its stopping test is a comparison, and a translated snapshot
holds v instead of new bounds, so advancing the source is O(n).  Per
superstep of ``solver._run_loop`` (modap, a translating source, no trace),
leaving out the combine of the reports (``c_a``):

    stopping test: eps and budget           2 compares
    ||y||^2 of the slice sum y              n multiplies + (n - 1) adds
    square root, range and zero tests       4
    step factor, its test, rescaled y       n + 2
    x - step, finiteness test               2n
    iteration count                         1
    clock: elapsed test, time add           2
    displacement + rate * dt                n + 1
    translate: finiteness test of v         n
    ------------------------------------------------------
    total                                   7n + 11

Each worker's pass bounds ``||v||`` itself (``geometry._norm_bound``, about
2n operations), so that cost falls in the map stage, once per worker;
neither ``c_p`` nor the per-row ``c_map`` counts it.

Default machine constants are plausible for a commodity cluster and are
assumptions, not measurements; the CLI labels them as such.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

from .geometry import _check_count, _check_positive

__all__ = [
    "BREADTH_SINGLE",
    "BREADTH_FULL",
    "CostParams",
    "CostCounts",
    "StageTimes",
    "operation_counts",
    "stage_times",
    "k_max",
]

BREADTH_SINGLE = "single"
BREADTH_FULL = "full"

DEFAULT_TAU_OP = 2.5e-10
DEFAULT_TAU_TR = 2e-9
DEFAULT_LATENCY = 1.5e-6


@dataclass(frozen=True)
class CostParams:
    """Problem shape, machine constants, and update breadth.

    ``tau_op``: seconds per arithmetic/comparison operation; ``tau_tr``:
    seconds per transferred float; ``latency``: per-message latency in
    seconds; ``update_breadth``: how much of the source data changes per
    iteration (``single`` value vs the ``full`` (n+1)m payload).
    """

    n: int
    m: int
    tau_op: float = DEFAULT_TAU_OP
    tau_tr: float = DEFAULT_TAU_TR
    latency: float = DEFAULT_LATENCY
    update_breadth: str = BREADTH_SINGLE

    def __post_init__(self):
        operation_counts(self.n, self.m, self.update_breadth)  # checks the shape
        for name in ("tau_op", "tau_tr", "latency"):
            _check_positive(name, getattr(self, name))


@dataclass(frozen=True)
class CostCounts:
    """Per-iteration operation and transfer counts."""

    c_s: int
    c_map: int
    c_a: int
    c_r: int
    c_p: int
    c_u: int


@dataclass(frozen=True)
class StageTimes:
    """Per-iteration stage times in seconds."""

    t_s: float
    t_map: float
    t_r: float
    t_a: float
    t_p: float


def operation_counts(n: int, m: int, update_breadth: str = BREADTH_SINGLE) -> CostCounts:
    """Counts for one iteration; see the module docstring for the tally."""
    _check_count("n", n)
    _check_count("m", m)
    if update_breadth not in (BREADTH_SINGLE, BREADTH_FULL):
        raise ValueError(f"unknown update breadth {update_breadth!r}")
    return CostCounts(
        c_s=n,
        c_map=(5 * n + 1) * m,
        c_a=n,
        c_r=n,
        c_p=7 * n + 11,
        c_u=1 if update_breadth == BREADTH_SINGLE else (n + 1) * m,
    )


def _finite(**values) -> None:
    """``ValueError`` naming the first of ``values`` that is not a finite float64."""
    for name, value in values.items():
        if not value <= sys.float_info.max:  # exact for an int, false for nan
            shown = value if isinstance(value, float) else f"2^{value.bit_length() - 1} or more"
            raise ValueError(f"cost model: {name} = {shown} is not a finite float64")


def stage_times(params: CostParams) -> StageTimes:
    """Stage times: transfers scale with tau_tr, compute with tau_op.
    Raises ``ValueError`` naming a count or time that is not a finite float64."""
    c = operation_counts(params.n, params.m, params.update_breadth)
    _finite(**asdict(c))
    t = StageTimes(
        t_s=(c.c_s + c.c_u) * params.tau_tr,
        t_map=c.c_map * params.tau_op,
        t_r=c.c_r * params.tau_tr,
        t_a=c.c_a * params.tau_op,
        t_p=c.c_p * params.tau_op,
    )
    _finite(**asdict(t))
    return t


def k_max(params: CostParams) -> float:
    """Worker count beyond which the model predicts no further speedup.

    ``sqrt((t_map + m * t_a) / (2 * latency + t_s + t_r + t_a))``, returned
    as a real bound; flooring to a node count is the caller's concern.
    Invariant in the time unit: scaling tau_op, tau_tr and latency together
    leaves it unchanged.  With proportional m and growing n it scales like
    sqrt(n) for single-value updates but stays bounded for full-data
    updates, whose shipping cost grows as fast as the map work itself.
    Raises ``ValueError`` as :func:`stage_times` does, and when k_max itself is not finite.
    """
    t = stage_times(params)
    numerator = t.t_map + params.m * t.t_a
    denominator = 2 * params.latency + t.t_s + t.t_r + t.t_a
    value = math.sqrt(numerator / denominator)
    _finite(k_max=value)
    return value
