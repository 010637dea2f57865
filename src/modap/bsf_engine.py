"""Bulk-synchronous master-worker engine.

:func:`run_parallel` is the engine.  The calling thread is the master and
runs the sequential solver's loop; K daemon threads each run a closure that
owns one contiguous block of the constraint rows and serves its own inbox.
Per superstep the master sends every worker the current snapshot of the
(possibly moving) system and a copy of the point, and each worker posts the
report of its one filtered row pass (see :mod:`modap.geometry`) to a shared
outbox.  The master makes no row pass: it stops on the maximum of the
workers' maxima, else sums their slices, steps and advances the source,
O(n) plus the O(h n) slice sum, since a translated snapshot holds v rather
than new bounds.  k iterations take k + 1 supersteps; then ``None`` stops
each worker.  A worker that raises posts an :class:`EngineError` naming
it, with the exception as its cause, and keeps serving; the master raises
that error.

Workers share no mutable state: the point is a copy, and a snapshot, a
system or a :class:`~modap.geometry.Translated` one, is immutable and no
pass writes to it, so every worker reads the system the master's loop
sees.  The master stacks the reports in arrival order and sums each
coordinate once, exactly rounded (:func:`modap.summation.column_sums`).  An
exactly rounded sum depends only on the multiset of addends, and a maximum
is exact, so the step and the stop decision are bit-identical to the
sequential engine's for every worker count and arrival order.
:func:`superstep` is the same math without threads.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

import numpy as np

from .dynamics import as_source
from .geometry import InequalitySystem
from .solver import SolveOutcome, SolverConfig, _run_loop, partial_reduction

__all__ = [
    "EngineConfig",
    "EngineError",
    "partition_rows",
    "compute_report",
    "combine_reports",
    "superstep",
    "run_parallel",
]


class EngineError(RuntimeError):
    """A worker failed; the run was aborted."""


@dataclass
class EngineConfig:
    workers: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


def partition_rows(m: int, workers: int) -> list[range]:
    """Balanced contiguous split of m rows: the first ``m % workers``
    ranges get the extra row."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > m:
        raise ValueError(f"more workers ({workers}) than rows ({m})")
    base, extra = divmod(m, workers)
    bounds = [w * base + min(w, extra) for w in range(workers + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def compute_report(sys: InequalitySystem, part: range,
                   x: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Worker-side math for one superstep over one row range: the
    :func:`~modap.solver.partial_reduction` of those rows."""
    return partial_reduction(sys, x, part.start, part.stop)


def combine_reports(
    reports: list[tuple[np.ndarray, int, float]],
) -> tuple[np.ndarray, int, float]:
    """Master-side combination of the workers' partial reductions, in any
    order: all their slices stacked, the total count and the largest
    violation, as :func:`~modap.solver.partial_reduction` gives them for
    every row."""
    blocks, counts, worsts = zip(*reports)
    return np.concatenate(blocks), sum(counts), max(worsts)


def superstep(
    sys: InequalitySystem, x: np.ndarray, partitions: list[range]
) -> tuple[np.ndarray, int, float]:
    """One superstep's row pass over explicit row ranges, without threads.

    This is exactly the math the threaded engine performs; with a single
    range covering every row it is the sequential
    :func:`~modap.solver.partial_reduction`.
    """
    return combine_reports([compute_report(sys, p, x) for p in partitions])


def run_parallel(source, solver_config: SolverConfig | None = None,
                 engine_config: EngineConfig | None = None) -> SolveOutcome:
    """Parallel run with semantics identical to :func:`modap.solver.solve`;
    a worker's exception is the cause of the :class:`EngineError` raised."""
    source = as_source(source)
    if solver_config is None:
        solver_config = SolverConfig()
    if engine_config is None:
        engine_config = EngineConfig()
    partitions = partition_rows(source.snapshot().m, engine_config.workers)
    outbox = queue.SimpleQueue()
    inboxes = [queue.SimpleQueue() for _ in partitions]

    def serve(index: int, part: range, inbox: queue.SimpleQueue) -> None:
        while (msg := inbox.get()) is not None:
            try:
                outbox.put(compute_report(msg[0], part, msg[1]))
            except BaseException as exc:  # noqa: BLE001 - raised by the master
                error = EngineError(f"worker {index} failed: {exc!r}")
                error.__cause__ = exc
                outbox.put(error)

    threads = [threading.Thread(target=serve, args=(i, p, inbox), daemon=True,
                                name=f"bsf-worker-{i}")
               for i, (p, inbox) in enumerate(zip(partitions, inboxes))]
    for t in threads:
        t.start()

    def evaluate(sys, x):
        for inbox in inboxes:
            inbox.put((sys, x.copy()))
        reports = []
        for _ in inboxes:
            msg = outbox.get()
            if isinstance(msg, EngineError):
                raise msg
            reports.append(msg)
        return combine_reports(reports)

    try:
        return _run_loop(source, solver_config, evaluate)
    finally:
        for inbox in inboxes:
            inbox.put(None)
        for t in threads:
            t.join()
