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
each worker.  A worker that raises posts its partition index and the
exception and keeps serving, and the master raises :class:`EngineError`.

Workers share no mutable state: the point is a copy, and a snapshot is
immutable (its exact translated bounds are a pure function of the row), so
every worker reads the system the master's loop sees.  The master stacks
the reports in arrival order and sums each coordinate once, exactly rounded
(:func:`modap.summation.column_sums`).  An exactly rounded sum depends only
on the multiset of addends, and a maximum is exact, so the step and the
stop decision are bit-identical to the sequential engine's for every worker
count and arrival order.  :func:`superstep` is the same math without threads.
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
    "Partition",
    "WorkerReport",
    "partition_rows",
    "compute_report",
    "combine_reports",
    "superstep",
    "run_parallel",
]


class EngineError(RuntimeError):
    """A worker failed; the run was aborted."""


@dataclass(frozen=True)
class Partition:
    """Contiguous half-open row range [start, stop) owned by one worker."""

    worker_index: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass
class EngineConfig:
    workers: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass
class WorkerReport:
    """One worker's superstep result: the slices of its violated rows,
    stacked ``(partial_h, n)`` in row order, their count, and their largest
    normalized violation (0 when there are none)."""

    worker_index: int
    slices: np.ndarray
    partial_h: int
    max_violation: float


def partition_rows(m: int, workers: int) -> list[Partition]:
    """Balanced contiguous split of m rows: the first ``m % workers``
    partitions get the extra row."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > m:
        raise ValueError(f"more workers ({workers}) than rows ({m})")
    base, extra = divmod(m, workers)
    parts = []
    start = 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        parts.append(Partition(w, start, start + size))
        start += size
    return parts


def compute_report(sys: InequalitySystem, part: Partition, x: np.ndarray) -> WorkerReport:
    """Worker-side math for one superstep over one partition."""
    return WorkerReport(part.worker_index, *partial_reduction(sys, x, part.start, part.stop))


def combine_reports(reports: list[WorkerReport]) -> tuple[np.ndarray, int, float]:
    """Master-side combination of the worker reports, in any order: all
    their slices stacked, the total count and the largest violation, as
    :func:`~modap.solver.partial_reduction` gives them for every row."""
    block = np.concatenate([r.slices for r in reports])
    return (block, sum(r.partial_h for r in reports),
            max(r.max_violation for r in reports))


def superstep(
    sys: InequalitySystem, x: np.ndarray, partitions: list[Partition]
) -> tuple[np.ndarray, int, float]:
    """One superstep's row pass over explicit partitions, without threads.

    This is exactly the math the threaded engine performs; with a single
    partition covering every row it is the sequential
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

    def serve(part: Partition, inbox: queue.SimpleQueue) -> None:
        while (msg := inbox.get()) is not None:
            try:
                outbox.put(compute_report(msg[0], part, msg[1]))
            except BaseException as exc:  # noqa: BLE001 - raised by the master
                outbox.put((part.worker_index, exc))

    threads = [threading.Thread(target=serve, args=(p, inbox), daemon=True,
                                name=f"bsf-worker-{p.worker_index}")
               for p, inbox in zip(partitions, inboxes)]
    for t in threads:
        t.start()

    def evaluate(sys, x):
        for inbox in inboxes:
            inbox.put((sys, x.copy()))
        reports = []
        for _ in inboxes:
            msg = outbox.get()
            if isinstance(msg, tuple):
                raise EngineError(f"worker {msg[0]} failed: {msg[1]!r}") from msg[1]
            reports.append(msg)
        return combine_reports(reports)

    try:
        return _run_loop(source, solver_config, evaluate)
    finally:
        for inbox in inboxes:
            inbox.put(None)
        for t in threads:
            t.join()
