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
superstep, for the modap step on a translating source, and leaving out the
combine of the reports (``c_a``):

    stopping test: eps and budget           2 compares
    ||y||^2 of the slice sum y              n multiplies + (n - 1) adds
    square root, range and zero tests       4
    step factor, its test, rescaled y       n + 2
    x - step, finiteness test, step vector  3n
    iteration count                         1
    clock: test and add                     2
    displacement += velocity * dt           2n
    translate: finite v, bound on ||v||     3n + 3
    ------------------------------------------------------
    total                                   11n + 13

Default machine constants are plausible for a commodity cluster and are
assumptions, not measurements; the CLI labels them as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BREADTH_SINGLE",
    "BREADTH_FULL",
    "CostParams",
    "CostCounts",
    "StageTimes",
    "CostReport",
    "operation_counts",
    "stage_times",
    "k_max",
    "report",
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
        if self.n < 1 or self.m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")
        for name in ("tau_op", "tau_tr", "latency"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.update_breadth not in (BREADTH_SINGLE, BREADTH_FULL):
            raise ValueError(f"unknown update breadth {self.update_breadth!r}")


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


@dataclass(frozen=True)
class CostReport:
    params: CostParams
    counts: CostCounts
    times: StageTimes
    k_max: float


def operation_counts(n: int, m: int, update_breadth: str = BREADTH_SINGLE) -> CostCounts:
    """Counts for one iteration; see the module docstring for the tally."""
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if update_breadth == BREADTH_SINGLE:
        c_u = 1
    elif update_breadth == BREADTH_FULL:
        c_u = (n + 1) * m
    else:
        raise ValueError(f"unknown update breadth {update_breadth!r}")
    return CostCounts(
        c_s=n,
        c_map=(5 * n + 1) * m,
        c_a=n,
        c_r=n,
        c_p=11 * n + 13,
        c_u=c_u,
    )


def stage_times(params: CostParams) -> StageTimes:
    """Stage times: transfers scale with tau_tr, compute with tau_op."""
    c = operation_counts(params.n, params.m, params.update_breadth)
    return StageTimes(
        t_s=(c.c_s + c.c_u) * params.tau_tr,
        t_map=c.c_map * params.tau_op,
        t_r=c.c_r * params.tau_tr,
        t_a=c.c_a * params.tau_op,
        t_p=c.c_p * params.tau_op,
    )


def k_max(params: CostParams) -> float:
    """Worker count beyond which the model predicts no further speedup.

    ``sqrt((t_map + m * t_a) / (2 * latency + t_s + t_r + t_a))``, returned
    as a real bound; flooring to a node count is the caller's concern.
    Invariant in the time unit: scaling tau_op, tau_tr and latency together
    leaves it unchanged.  With proportional m and growing n it scales like
    sqrt(n) for single-value updates but stays bounded for full-data
    updates, whose shipping cost grows as fast as the map work itself.
    """
    t = stage_times(params)
    numerator = t.t_map + params.m * t.t_a
    denominator = 2 * params.latency + t.t_s + t.t_r + t.t_a
    return math.sqrt(numerator / denominator)


def report(params: CostParams) -> CostReport:
    """Everything the model says about one configuration."""
    return CostReport(
        params=params,
        counts=operation_counts(params.n, params.m, params.update_breadth),
        times=stage_times(params),
        k_max=k_max(params),
    )

