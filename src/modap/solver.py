"""Sequential reference engine for the AP and ModAP iterations.

Both variants repeat: compute the positive slices of the violated rows at
the current point (the map), sum them and count the violated rows (the
reduce), step, let the source advance, and test membership against the
updated system.  AP subtracts the averaged violation direction, which
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
After each pass the loop stacks the norms it needs, the last step's for its
trace record and the next direction's for a modap step, and takes them from
one :func:`~modap.geometry.vector_norms` call, so the master's two length-n
norms are one exact sum per iteration.  The trace record's wall time is read
right after the pass; the record is completed when its step norm is known.

Floating-point warnings: the whole loop runs in one ``np.errstate(all=
"ignore")`` scope, and the row pass, the norm sums and the step open none of
their own, so a solve enters one scope.  Nothing is lost by that: every
value that leaves float64 is caught by an explicit check where it is formed
(an exact sum that overflows, a bound that is not finite, a step that is
not finite), each with its own ``ValueError``, and a norm whose square
overflows is rescaled.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np

from . import dynamics
# bench/tracer.py traces eps_membership and max_relative_violation here
from .geometry import (  # noqa: F401
    InequalitySystem,
    _as_point,
    _rescaled,
    eps_membership,
    max_relative_violation,
    vector_norms,
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
        _check_count("max_iterations", self.max_iterations)


def _check_count(name: str, value) -> None:
    """``ValueError`` unless value is an ``Integral``, not a ``bool``, >= 1."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


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
    sys: InequalitySystem, x: np.ndarray, start: int = 0, stop: int | None = None,
    point=None,
) -> tuple[np.ndarray, int, float]:
    """The filtered pass over [start, stop): the violated rows' slices
    stacked ``(h, n)``, h, and their largest normalized violation.

    Shared by the sequential solver and the engine workers: a full-range call
    and any set of covering partial calls give the same rows, so the
    :func:`~modap.summation.column_sums` of their stacked blocks, and the
    maximum of their maxima, are bit-identical.  It adds h to
    :func:`~modap.geometry.violated_slices`, takes its prepared ``point``,
    and raises as it does; the caller silences floating-point warnings.
    """
    block, worst = violated_slices(sys, x, start, stop, point)
    return block, block.shape[0], worst


def _apply_step(
    x: np.ndarray, y: np.ndarray, h: int, variant: str, step_length: float,
    norm: float | None,
) -> np.ndarray:
    """Next iterate from the reduced slice sum y with h > 0 violated rows;
    ``norm`` is ``||y||``, which only the modap variant reads."""
    if variant == VARIANT_AP:
        return x - y / h
    if norm == 0.0:
        raise ValueError(
            "violation direction vanished although rows are violated; "
            "the system looks infeasible"
        )
    return x - _rescaled(y, norm, step_length)


def _run_loop(src, config: SolverConfig, evaluate) -> SolveOutcome:
    """Shared iteration skeleton for the sequential and parallel engines.

    ``evaluate(sys, x) -> (block, h, max_violation)`` is the filtered row
    pass over the snapshot ``sys`` (see :func:`partial_reduction`);
    everything else (membership decision, slice sum, step, source updates,
    bookkeeping) is identical between engines, which is what the bit-level
    equivalence contract rests on.  It runs in one scope that silences
    floating-point warnings (module docstring).  A given initial point is
    checked as any point is (:func:`~modap.geometry._as_point`).
    """
    n = src.snapshot().n
    x = (np.zeros(n) if config.initial_point is None
         else _as_point(config.initial_point, n, "initial point"))
    trace: list[IterationRecord] | None = [] if config.record_trace else None
    iterates: list[np.ndarray] | None = (
        [x.copy()] if config.record_iterates else None
    )
    modap = config.variant == VARIANT_MODAP
    t_start = time.perf_counter()
    iterations = 0
    with np.errstate(all="ignore"):  # see the module docstring
        block, h, violation = evaluate(src.snapshot(), x)
        step_vec = None  # the last step while its trace record waits for its norm
        while True:
            if violation < config.eps:
                status = SolveStatus.CONVERGED
            elif iterations >= config.max_iterations:
                status = SolveStatus.BUDGET_EXHAUSTED
            else:
                status = None
            # the last step's norm and the next direction's are one exact sum
            stack = [] if step_vec is None else [step_vec]
            if status is None:
                y = column_sums(block)
                if modap:
                    stack.append(y)
            norms = vector_norms(np.array(stack)) if stack else []
            if step_vec is not None:
                trace.append(
                    IterationRecord(
                        k=iterations,
                        h=step_h,
                        step_norm=norms[0],
                        max_violation=violation,
                        virtual_time=src.current_time,
                        wall_time=wall_time,
                    )
                )
            if status is not None:
                break
            dt = src.next_elapsed()
            x_next = _apply_step(x, y, h, config.variant, config.step_length,
                                 norms[-1] if modap else None)
            if not np.isfinite(x_next).all():
                raise ValueError(
                    f"iteration {iterations + 1} left float64: the step from the "
                    "violated rows' slices is not finite"
                )
            if trace is not None:
                step_vec = x_next - x
            x = x_next
            iterations += 1
            src.advance(dt)
            step_h = h
            block, h, violation = evaluate(src.snapshot(), x)
            wall_time = time.perf_counter() - t_start
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
