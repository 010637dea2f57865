"""Bulk-synchronous master-worker engine, run in the caller's thread.

:func:`run_parallel` is the engine.  It splits the constraint rows into K
contiguous blocks (:func:`partition_rows`), one per worker of the BSF
skeleton, and runs the sequential solver's loop.  Per superstep each block
gets its one filtered row pass (see :mod:`modap.geometry`) over the current
snapshot of the (possibly moving) system and the point, as
:func:`compute_report`, and the master combines the K reports
(:func:`combine_reports`): it stops on the maximum of the blocks' maxima,
else sums their slices, steps and advances the source, O(n) plus the
O(h n) slice sum, since a translated snapshot holds v rather than new
bounds.  k iterations take k + 1 supersteps.

The K passes run one after another in the calling thread, with no threads,
queues or copies of the point; a pass that raises fails the run with its
own exception, as in :func:`modap.solver.solve`.  Under CPython's
interpreter lock, worker threads cost more hand-off than they saved at
every size measured (``BENCH_engine.json``), so the engine keeps the BSF
skeleton's decomposition and combine, which the cost model prices, and not
its threads.  The master stacks the reports and sums each coordinate once,
exactly rounded (:func:`modap.summation.column_sums`).  An exactly rounded
sum depends only on the multiset of addends, and a maximum is exact, so
the step and the stop decision are bit-identical to the sequential
engine's for every worker count and report order.

A superstep's fixed costs do not grow with K.  The point is prepared for
the snapshot's settle test once per superstep (``x - v`` and the norm bound
S, see :mod:`modap.geometry`), and every block's pass reads it, so a block
does no O(n) work beyond its own rows.  The reports are stacked only when
two or more blocks hold violated rows.  As in the sequential engine, the
loop runs in one scope that silences floating-point warnings, and no
superstep, block pass or norm sum opens one, so a solve enters one scope at
any K: each value that leaves float64 is caught where it is formed
(:mod:`modap.solver`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import as_source
from .geometry import InequalitySystem, _check_count, _point
from .solver import SolveOutcome, SolverConfig, _run_loop, partial_reduction

__all__ = [
    "EngineConfig",
    "partition_rows",
    "compute_report",
    "combine_reports",
    "superstep",
    "run_parallel",
]


@dataclass
class EngineConfig:
    workers: int = 1

    def __post_init__(self):
        _check_count("workers", self.workers)


def partition_rows(m: int, workers: int) -> list[range]:
    """Balanced contiguous split of m rows: the first ``m % workers``
    ranges get the extra row."""
    _check_count("workers", workers)
    if workers > m:
        raise ValueError(f"more workers ({workers}) than rows ({m})")
    base, extra = divmod(m, workers)
    bounds = [w * base + min(w, extra) for w in range(workers + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def compute_report(sys: InequalitySystem, part: range, x: np.ndarray,
                   point=None) -> tuple[np.ndarray, int, float]:
    """Worker-side math for one superstep over one row range: the
    :func:`~modap.solver.partial_reduction` of those rows, reading the
    superstep's prepared ``point`` (None: prepared here).  The caller
    silences floating-point warnings."""
    return partial_reduction(sys, x, part.start, part.stop, point)


def combine_reports(
    reports: list[tuple[np.ndarray, int, float]],
) -> tuple[np.ndarray, int, float]:
    """Master-side combination of the workers' partial reductions, in any
    order: all their slices stacked, the total count and the largest
    violation, as :func:`~modap.solver.partial_reduction` gives them for
    every row.  When at most one report holds rows, its block is returned
    as it is, not copied."""
    blocks, counts, worsts = zip(*reports)
    held = [block for block in blocks if len(block)] or blocks[:1]
    block = held[0] if len(held) == 1 else np.concatenate(held)
    return block, sum(counts), max(worsts)


def superstep(
    sys: InequalitySystem, x: np.ndarray, partitions: list[range]
) -> tuple[np.ndarray, int, float]:
    """One superstep's row pass over explicit row ranges, one range after
    another; with a single range covering every row it is the sequential
    :func:`~modap.solver.partial_reduction`.  The point is prepared for the
    snapshot once, and every range's pass reads it.  The caller silences
    floating-point warnings."""
    point = _point(sys, x)
    return combine_reports([compute_report(sys, p, x, point) for p in partitions])


def run_parallel(source, solver_config: SolverConfig | None = None,
                 engine_config: EngineConfig | None = None) -> SolveOutcome:
    """Run with semantics identical to :func:`modap.solver.solve`, each
    superstep's row pass split over the engine's K row blocks."""
    source = as_source(source)
    if solver_config is None:
        solver_config = SolverConfig()
    if engine_config is None:
        engine_config = EngineConfig()
    partitions = partition_rows(source.snapshot().m, engine_config.workers)
    return _run_loop(source, solver_config, lambda sys, x: superstep(sys, x, partitions))
