"""Time dependence of an inequality system: translation at a fixed rate.

The moving-system model is a rigid translation of the feasible region.
Translating the region by v maps ``{x : Ax <= b}`` to ``{x : Ax <= b + Av}``,
so only the right-hand side changes; the stored coefficient rows (the CSR
arrays) and their cached norms are shared across every snapshot.

A translated snapshot is a :class:`~modap.geometry.Translated`: the base
system and a copy of v, which costs O(n) and reads no coefficient.  The
filtered row pass of :mod:`modap.geometry` estimates a translated residual
with its one pass over the stored entries, ``A (x - v) - b``, and its
settle test adds ``theta^n_i S + theta^d``, S an upper bound on ``||x|| +
||v||``, which covers the rounding of ``x - v`` and of the exact bound.
It needs no ``|b_i|`` term: the estimate itself bounds ``|b_i|`` (step
(e) in :mod:`modap.geometry`).  Each pass bounds ``||v||`` itself, so no
pass writes to a snapshot.  The exact bound ``b_i + <a_i, v>`` (inner
product exactly rounded) is computed only for the rows a pass evaluates
exactly, and every value that reaches an iterate or a trace comes from
these exact bounds.  Translating a translated snapshot adds the shifts,
so a snapshot is always a base system and one shift.

Two clock modes drive the motion: a virtual clock that advances a fixed
quantum per solver iteration (deterministic, machine-independent, the
default) and a wall clock that reproduces a real-time race against the
moving region but is excluded from reproducibility assertions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .geometry import InequalitySystem, Translated, _as_point

__all__ = [
    "STATIONARY",
    "TRANSLATION",
    "CLOCK_VIRTUAL",
    "CLOCK_WALL",
    "DynamicsSpec",
    "DynamicSystemSource",
    "translate",
    "as_source",
]

STATIONARY = "stationary"
TRANSLATION = "translation"
CLOCK_VIRTUAL = "virtual"
CLOCK_WALL = "wall"


@dataclass
class DynamicsSpec:
    """How (and whether) the system moves.

    ``rate`` is the per-coordinate displacement in units per second: every
    coordinate gains ``rate * elapsed``, so the total displacement speed is
    ``sqrt(n) * rate``.
    """

    mode: str = STATIONARY
    rate: float = 0.0
    clock: str = CLOCK_VIRTUAL
    seconds_per_iteration: float = 0.01

    def __post_init__(self):
        if self.mode not in (STATIONARY, TRANSLATION):
            raise ValueError(f"unknown dynamics mode {self.mode!r}")
        if self.clock not in (CLOCK_VIRTUAL, CLOCK_WALL):
            raise ValueError(f"unknown clock mode {self.clock!r}")
        if not math.isfinite(self.rate):
            raise ValueError(f"rate must be finite, got {self.rate}")
        if not (self.seconds_per_iteration > 0 and math.isfinite(self.seconds_per_iteration)):
            raise ValueError(
                f"seconds_per_iteration must be positive and finite, got {self.seconds_per_iteration}"
            )


def translate(sys: InequalitySystem | Translated, v) -> Translated:
    """System whose feasible region is the original's translated by v.

    Rows are unchanged; ``b' = b + A v`` so that ``x`` is feasible for the
    original iff ``x + v`` is feasible for the result.  ``b'`` is held
    implicitly (see the module docstring); its bits are those of
    ``b_i + exact_dot(a_i, v)``.  Translating ``Translated(base, u)`` gives
    ``Translated(base, u + v)``, which costs O(n) and builds no system.  v
    is checked as any point is, and the sum ``u + v`` must be finite too.
    """
    v = _as_point(v, sys.n, "displacement")  # a copy
    if isinstance(sys, Translated):
        with np.errstate(over="ignore"):  # reported below
            sys, v = sys.system, sys.shift + v
        if not np.isfinite(v).all():
            raise ValueError("displacement must be finite")
    return Translated(sys, v)


class DynamicSystemSource:
    """Owns the current state of a (possibly moving) inequality system.

    The right-hand side is always recomputed from the base system and the
    cumulative displacement, so advancing in two half-steps matches one full
    step to the last bit of the displacement accumulation.

    A source is confined to one owner; its snapshots are immutable and may
    be shared, which is how the engine hands the current system to its
    workers.
    """

    def __init__(self, base: InequalitySystem | Translated, spec: DynamicsSpec | None = None):
        self.base = base
        self.spec = spec if spec is not None else DynamicsSpec()
        self.current_time = 0.0
        self.cumulative_displacement = np.zeros(base.n)
        self._rate = float(self.spec.rate)
        self._current = base
        self._last_wall = time.perf_counter()

    def snapshot(self) -> InequalitySystem | Translated:
        """Current system; unchanged until the next :meth:`advance`."""
        return self._current

    def advance(self, elapsed: float) -> None:
        """Move the system forward by ``elapsed`` seconds, finite and >= 0.
        An error leaves the source as it was."""
        if not (elapsed >= 0 and math.isfinite(elapsed)):
            raise ValueError(f"elapsed must be finite and non-negative, got {elapsed}")
        if self.spec.mode == TRANSLATION:
            displacement = self.cumulative_displacement + self._rate * elapsed
            self._current = translate(self.base, displacement)
            self.cumulative_displacement = displacement
        self.current_time += elapsed

    def next_elapsed(self) -> float:
        """Elapsed seconds to charge to the iteration that is about to run."""
        if self.spec.clock == CLOCK_VIRTUAL:
            return self.spec.seconds_per_iteration
        now = time.perf_counter()
        dt = now - self._last_wall
        self._last_wall = now
        return dt


def as_source(obj) -> DynamicSystemSource:
    """Coerce a bare system, translated or not, into a stationary source;
    pass sources through."""
    if isinstance(obj, DynamicSystemSource):
        return obj
    if isinstance(obj, (InequalitySystem, Translated)):
        return DynamicSystemSource(obj, DynamicsSpec())
    raise TypeError(f"expected a system or a DynamicSystemSource, got {type(obj)!r}")
