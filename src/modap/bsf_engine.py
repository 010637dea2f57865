"""Bulk-synchronous master-worker engine.

One master thread runs the same iteration loop as the sequential solver; K
worker threads each own a contiguous block of the constraint rows.  Per
superstep the master broadcasts the current snapshot of the (possibly
moving) system and the current point, the workers compute exact partial
reductions over their rows and send them back, the master combines the
reports, steps, advances the source, and decides whether to stop; the final
broadcast carries the exit flag.

Workers never share mutable state: the point is a value copy, and a
snapshot is immutable (its exact translated bounds are a pure function of
the row, computed on demand), so every worker reads the same system the
master's membership test sees, without a replica of its own.

With ``ordered_reduce`` (the default) the reports are combined as exact
expansions in ascending worker order and rounded once, which makes the
reduced sum bit-identical to the sequential engine's for every worker
count.  Without it the master adds the already-rounded partial vectors in
arrival order, which is faster to reason about as a baseline but
reproducible only to rounding noise.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from .dynamics import as_source
from .geometry import InequalitySystem
from .solver import SolveOutcome, SolverConfig, _run_loop, partial_reduction
from .summation import VectorExpansion

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
    ordered_reduce: bool = True

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass
class WorkerReport:
    """One worker's superstep result: its partial slice sum and violated count.

    ``expansion`` carries the partial sum exactly (unrounded) for the ordered
    combine; ``partial_y`` is the same sum rounded once.
    """

    worker_index: int
    partial_y: np.ndarray
    partial_h: int
    expansion: VectorExpansion | None = field(repr=False, default=None)


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
    acc, h = partial_reduction(sys, x, part.start, part.stop)
    return WorkerReport(part.worker_index, acc.rounded(), h, acc)


def combine_reports(
    reports: list[WorkerReport], dim: int, ordered: bool = True
) -> tuple[np.ndarray, int]:
    """Master-side combination of the worker reports."""
    h = sum(r.partial_h for r in reports)
    if ordered:
        total = VectorExpansion(dim)
        for r in sorted(reports, key=lambda rep: rep.worker_index):
            total.merge(r.expansion)
        return total.rounded(), h
    y = np.zeros(dim)
    for r in reports:
        y = y + r.partial_y
    return y, h


def superstep(
    sys: InequalitySystem,
    x: np.ndarray,
    partitions: list[Partition],
    ordered_reduce: bool = True,
) -> tuple[np.ndarray, int]:
    """One map+reduce superstep over explicit partitions, without threads.

    This is exactly the math the threaded engine performs; with a single
    partition covering every row it degenerates to the sequential
    map/reduce.
    """
    reports = [compute_report(sys, p, x) for p in partitions]
    return combine_reports(reports, sys.n, ordered_reduce)


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
        except Exception as exc:  # noqa: BLE001 - surfaces as EngineError
            self.outbox.put(("error", self.index, exc))


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
        ordered = self.engine_config.ordered_reduce
        dim = self.source.snapshot().n

        def reduction(sys, x):
            for w in workers:
                w.inbox.put(("work", sys, x.copy()))
            reports = []
            for _ in workers:
                msg = outbox.get()
                if msg[0] == "error":
                    raise EngineError(f"worker {msg[1]} failed: {msg[2]!r}") from msg[2]
                reports.append(msg[1])
            return combine_reports(reports, dim, ordered)

        try:
            outcome = _run_loop(self.source, self.solver_config, reduction)
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
