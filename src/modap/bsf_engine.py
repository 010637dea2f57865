"""Bulk-synchronous master-worker engine.

One master thread runs the same iteration loop as the sequential solver; K
worker threads each own a contiguous block of the constraint rows.  Per
superstep the master broadcasts the current snapshot of the (possibly
moving) system and the current point, and each worker makes the one
filtered row pass over its rows (see :mod:`modap.geometry`).  The master
makes no row pass: it decides whether to stop from the maximum of the
workers' maxima, else sums their slices, steps and advances the source.
Its work per superstep is O(n) plus the slice sum (O(h n) for h violated
rows): a translated snapshot holds v rather than new bounds, and each
worker takes ``x - v`` itself for the one matrix-vector product over its
rows.  k iterations take k + 1 supersteps; the final broadcast carries the
exit flag.

Workers never share mutable state: the point is a value copy, and a
snapshot is immutable (its exact translated bounds are a pure function of
the row, computed on demand), so every worker reads the same system the
master's membership test sees, without a replica of its own.

Each report carries the worker's violated rows' slices, stacked, their
count and their largest normalized violation.  The master stacks the
reports in arrival order and, when it steps, sums each coordinate once,
exactly rounded (:func:`modap.summation.column_sums`).  An exactly rounded
sum depends only on the multiset of addends, and a maximum is exact, so the
step and the stop decision are bit-identical to the sequential engine's for
every worker count and every arrival order.
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
    "MasterWorkerEngine",
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


class _Worker(threading.Thread):
    def __init__(self, index: int, partition: Partition,
                 inbox: queue.Queue, outbox: queue.Queue):
        super().__init__(name=f"bsf-worker-{index}", daemon=True)
        self.index = index
        self.partition = partition
        self.inbox = inbox
        self.outbox = outbox
        self.supersteps = 0
        self.rows_processed = 0

    def run(self):
        try:
            while True:
                msg = self.inbox.get()
                if msg[0] == "exit":
                    break
                _, sys, x = msg
                report = compute_report(sys, self.partition, x)
                self.outbox.put(("report", report))
                self.supersteps += 1
                self.rows_processed += self.partition.size
        except BaseException as exc:  # noqa: BLE001 - surfaces as EngineError
            self.outbox.put(("error", self.index, exc))
            if not isinstance(exc, Exception):
                raise  # SystemExit and the like still end the thread


class MasterWorkerEngine:
    """Threaded engine; create, :meth:`run` once, then inspect counters."""

    def __init__(self, source, solver_config: SolverConfig,
                 engine_config: EngineConfig | None = None):
        self.source = as_source(source)
        self.solver_config = solver_config
        self.engine_config = engine_config if engine_config is not None else EngineConfig()
        m = self.source.snapshot().m
        self.partitions = partition_rows(m, self.engine_config.workers)
        self.worker_superstep_counts: list[int] = []
        self.worker_rows_processed: list[int] = []

    def run(self) -> SolveOutcome:
        outbox: queue.Queue = queue.Queue()
        workers = [
            _Worker(p.worker_index, p, queue.Queue(), outbox)
            for p in self.partitions
        ]
        for w in workers:
            w.start()

        def evaluate(sys, x):
            for w in workers:
                w.inbox.put(("work", sys, x.copy()))
            reports = []
            for _ in workers:
                msg = outbox.get()
                if msg[0] == "error":
                    raise EngineError(f"worker {msg[1]} failed: {msg[2]!r}") from msg[2]
                reports.append(msg[1])
            return combine_reports(reports)

        try:
            outcome = _run_loop(self.source, self.solver_config, evaluate)
        finally:
            for w in workers:
                w.inbox.put(("exit",))
            for w in workers:
                w.join()
            self.worker_superstep_counts = [w.supersteps for w in workers]
            self.worker_rows_processed = [w.rows_processed for w in workers]
        return outcome


def run_parallel(source, solver_config: SolverConfig | None = None,
                 engine_config: EngineConfig | None = None) -> SolveOutcome:
    """Parallel run with semantics identical to :func:`modap.solver.solve`."""
    if solver_config is None:
        solver_config = SolverConfig()
    engine = MasterWorkerEngine(source, solver_config, engine_config)
    return engine.run()
