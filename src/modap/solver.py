"""Sequential reference engine for the AP and ModAP iterations.

Both variants repeat: compute the positive slices of every row at the
current point (the map stage), sum them and count the violated rows (the
reduce stage), step, let the source advance, and test membership against
the updated system.  AP subtracts the averaged violation direction, which
is a Fejer-monotone move; ModAP rescales that direction to a fixed length
so steps do not decay near the boundary of a moving region.

Iteration structure: each (snapshot, point) gets exactly one filtered row
pass (:func:`partial_reduction`), giving the violated rows' slices, their
count h and the largest normalized violation.  The pass on the starting
point is the first membership test, so a feasible start takes no step.
Each iteration is then step -> advance source -> one pass on the updated
system, whose maximum is both the trace's value and the next membership
test, and whose slices, summed only if the loop steps again, give the next
direction (h = 0 means a maximum of 0 < eps, so it never reaches a step).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import dynamics
# bench/tracer.py traces eps_membership and max_relative_violation here
from .geometry import (  # noqa: F401
    InequalitySystem,
    SliceResult,
    _as_point,
    _rescaled,
    eps_membership,
    max_relative_violation,
    positive_slice,
    vector_norm,
    violated_slices,
)
from .summation import column_sums

__all__ = [
    "VARIANT_AP",
    "VARIANT_MODAP",
    "SolverConfig",
    "SolveStatus",
    "SolveOutcome",
    "IterationRecord",
    "ap_step",
    "modap_step",
    "map_stage",
    "reduce_stage",
    "solve",
]

VARIANT_AP = "ap"
VARIANT_MODAP = "modap"


@dataclass
class SolverConfig:
    """Iteration parameters.

    ``step_length`` is the fixed step length used by the modap variant only.
    ``initial_point`` overrides the default zero starting point (a test and
    experiment hook).
    """

    eps: float = 1e-7
    step_length: float = 1.0
    variant: str = VARIANT_MODAP
    max_iterations: int = 100_000
    record_trace: bool = False
    record_iterates: bool = False
    initial_point: np.ndarray | None = None

    def __post_init__(self):
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not (self.step_length > 0 and math.isfinite(self.step_length)):
            raise ValueError(
                f"step_length must be positive and finite, got {self.step_length}"
            )
        if self.variant not in (VARIANT_AP, VARIANT_MODAP):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass
class IterationRecord:
    """Per-iteration trace row.

    ``max_violation`` is measured against the system state after the
    iteration's source update, i.e. the state the convergence test sees.
    """

    k: int
    h: int
    step_norm: float
    max_violation: float
    virtual_time: float
    wall_time: float


@dataclass
class SolveOutcome:
    status: SolveStatus
    solution: np.ndarray
    iterations: int
    trace: list[IterationRecord] | None = None
    iterates: list[np.ndarray] | None = None

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


def partial_reduction(
    sys: InequalitySystem, x: np.ndarray, start: int = 0, stop: int | None = None
) -> tuple[np.ndarray, int, float]:
    """The filtered pass over [start, stop): the violated rows' slices
    stacked ``(h, n)``, h, and their largest normalized violation.

    Shared by the sequential solver and the engine workers: a full-range call
    and any set of covering partial calls give the same rows, so the
    :func:`~modap.summation.column_sums` of their stacked blocks, and the
    maximum of their maxima, are bit-identical.
    """
    block, worst = violated_slices(sys, x, start, stop)
    return block, block.shape[0], worst


def map_stage(sys: InequalitySystem, x) -> list[SliceResult]:
    """Positive slice of every row at x, in row order (length m)."""
    x = _as_point(x, sys.n)
    return [positive_slice(sys, i, x) for i in range(sys.m)]


def reduce_stage(slices: list[SliceResult]) -> tuple[np.ndarray, int]:
    """Sum of the slice directions and of the violation flags.

    The sum is exactly rounded, so it matches any partitioned evaluation of
    the same list.
    """
    if not slices:
        raise ValueError("reduce_stage needs a non-empty slice list")
    n = slices[0].direction.shape[0]
    for s in slices:
        if s.direction.shape != (n,):
            raise ValueError(
                f"dimension mismatch among slices: {s.direction.shape} vs ({n},)"
            )
    violated = [s.direction for s in slices if s.violated]
    return column_sums(np.array(violated).reshape(len(violated), n)), len(violated)


def _apply_step(
    x: np.ndarray, y: np.ndarray, h: int, variant: str, step_length: float
) -> np.ndarray:
    """Next iterate from the reduced slice sum y with h > 0 violated rows."""
    if variant == VARIANT_AP:
        return x - y / h
    norm = vector_norm(y)
    if norm == 0.0:
        raise ValueError(
            "violation direction vanished although rows are violated; "
            "the system looks infeasible"
        )
    return x - _rescaled(y, norm, step_length)


def ap_step(sys: InequalitySystem, x) -> tuple[np.ndarray, int]:
    """One averaged-projection step: ``x - phi(x)``; identity when feasible."""
    x = _as_point(x, sys.n)
    block, h, _ = partial_reduction(sys, x)
    if h == 0:
        return x.copy(), 0
    return _apply_step(x, column_sums(block), h, VARIANT_AP, 0.0), h


def modap_step(sys: InequalitySystem, x, step_length: float) -> tuple[np.ndarray, int]:
    """One fixed-length step of size ``step_length``; identity when feasible."""
    if not step_length > 0:
        raise ValueError(f"step_length must be positive, got {step_length}")
    x = _as_point(x, sys.n)
    block, h, _ = partial_reduction(sys, x)
    if h == 0:
        return x.copy(), 0
    return _apply_step(x, column_sums(block), h, VARIANT_MODAP, step_length), h


def _run_loop(src, config: SolverConfig, evaluate) -> SolveOutcome:
    """Shared iteration skeleton for the sequential and parallel engines.

    ``evaluate(sys, x) -> (block, h, max_violation)`` is the filtered row
    pass over the snapshot ``sys`` (see :func:`partial_reduction`);
    everything else (membership decision, slice sum, step, source updates,
    bookkeeping) is identical between engines, which is what the bit-level
    equivalence contract rests on.
    """
    n = src.snapshot().n
    if config.initial_point is None:
        x = np.zeros(n)
    else:
        x = np.array(config.initial_point, dtype=np.float64)
        if x.shape != (n,):
            raise ValueError(
                f"initial point has shape {x.shape}, expected ({n},)"
            )
        if not np.isfinite(x).all():
            raise ValueError("initial point must be finite")
    trace: list[IterationRecord] | None = [] if config.record_trace else None
    iterates: list[np.ndarray] | None = (
        [x.copy()] if config.record_iterates else None
    )
    t_start = time.perf_counter()
    iterations = 0
    block, h, violation = evaluate(src.snapshot(), x)
    while True:
        if violation < config.eps:
            status = SolveStatus.CONVERGED
            break
        if iterations >= config.max_iterations:
            status = SolveStatus.BUDGET_EXHAUSTED
            break
        dt = src.next_elapsed()
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            x_next = _apply_step(x, column_sums(block), h, config.variant,
                                 config.step_length)
        if not np.isfinite(x_next).all():
            raise ValueError(
                f"iteration {iterations + 1} left float64: the step from the "
                "violated rows' slices is not finite"
            )
        step_vec = x_next - x
        x = x_next
        iterations += 1
        src.advance(dt)
        step_h = h
        block, h, violation = evaluate(src.snapshot(), x)
        if trace is not None:
            trace.append(
                IterationRecord(
                    k=iterations,
                    h=step_h,
                    step_norm=vector_norm(step_vec),
                    max_violation=violation,
                    virtual_time=src.current_time,
                    wall_time=time.perf_counter() - t_start,
                )
            )
        if iterates is not None:
            iterates.append(x.copy())
    return SolveOutcome(
        status=status,
        solution=x.copy(),
        iterations=iterations,
        trace=trace,
        iterates=iterates,
    )


def solve(source, config: SolverConfig | None = None) -> SolveOutcome:
    """Run the configured variant until membership at precision eps or budget.

    ``source`` may be a bare :class:`InequalitySystem` (treated as
    stationary) or a :class:`~modap.dynamics.DynamicSystemSource`, whose
    clock is consumed as the run progresses.
    """
    if config is None:
        config = SolverConfig()
    return _run_loop(dynamics.as_source(source), config, partial_reduction)
