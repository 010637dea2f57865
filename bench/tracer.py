"""Spans around calls into each modap module, recorded from outside ``src/``.

:func:`patched` replaces each traced name where the program looks it up
(``modap.solver.eps_membership``, not ``modap.geometry.eps_membership``)
with a wrapper that records one span per call, and puts the originals back
on exit.  A span holds its name, the request it belongs to (a set-up or a
solve), the thread it ran on, its parent (the enclosing span on the same
thread, or for a worker thread the master's open superstep), wall and
thread-CPU start and end in nanoseconds, and a count where the call has
one.  Spans stay in memory until :meth:`Tracer.write` dumps them.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass

from modap import bsf_engine, dynamics, harness, solver

SUPERSTEP = "bsf_engine.superstep"


@dataclass
class Span:
    id: int
    parent: int | None
    request: str
    name: str
    thread: int
    wall_start: int
    wall_end: int
    cpu_start: int
    cpu_end: int
    count: int

    @property
    def cpu_s(self) -> float:
        return (self.cpu_end - self.cpu_start) * 1e-9

    @property
    def wall_s(self) -> float:
        return (self.wall_end - self.wall_start) * 1e-9


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_superstep: int | None = None

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call; ``count(args, result)`` gives
        the span's count."""

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else self._open_superstep
            stack.append(span_id)
            if name == SUPERSTEP:
                self._open_superstep = span_id
            w0, c0 = time.perf_counter_ns(), time.thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, w1 = time.thread_time_ns(), time.perf_counter_ns()
                stack.pop()
                if name == SUPERSTEP:
                    self._open_superstep = None
            self.spans.append(Span(span_id, parent, self.request, name,
                                   threading.get_ident(), w0, w1, c0, c1,
                                   count(args, result) if count else 0))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _rows_of_first_arg(args, result):
    return args[0].m


def _violated_count(args, result):
    return result[1]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Trace every layer the benchmark reports while the block runs."""

    def engine_loop(src, config, reduction):
        return traced_loop(src, config, tracer.wrap(SUPERSTEP, reduction))

    traced_loop = tracer.wrap("solver.loop", solver._run_loop)
    patches = [
        (solver, "_run_loop", traced_loop),
        (bsf_engine, "_run_loop", engine_loop),
        (solver, "eps_membership",
         tracer.wrap("geometry.eps_membership", solver.eps_membership)),
        (solver, "max_relative_violation",
         tracer.wrap("geometry.max_relative_violation", solver.max_relative_violation)),
        (solver, "violated_slices",
         tracer.wrap("geometry.violated_slices", solver.violated_slices)),
        (solver, "partial_reduction",
         tracer.wrap("solver.partial_reduction", solver.partial_reduction, _violated_count)),
        (bsf_engine, "partial_reduction",
         tracer.wrap("solver.partial_reduction", bsf_engine.partial_reduction, _violated_count)),
        (bsf_engine, "compute_report",
         tracer.wrap("bsf_engine.compute_report", bsf_engine.compute_report)),
        (bsf_engine, "combine_reports",
         tracer.wrap("bsf_engine.combine_reports", bsf_engine.combine_reports)),
        (dynamics, "translate",
         tracer.wrap("dynamics.translate", dynamics.translate, _rows_of_first_arg)),
        (harness, "generate_model_problem",
         tracer.wrap("harness.generate_model_problem", harness.generate_model_problem)),
        (harness, "load_system",
         tracer.wrap("harness.load_system", harness.load_system)),
        (harness, "InequalitySystem",
         tracer.wrap("geometry.InequalitySystem", harness.InequalitySystem)),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


def solve_layers(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals for the spans of one solve.

    Times are thread-CPU seconds summed over threads, so time a thread spent
    waiting for the interpreter lock or a queue is not counted as work;
    ``master_wait_s`` is the one wall-clock figure.  A span's self time is
    its own time minus that of its direct children on the same thread.
    """
    thread_of = {s.id: s.thread for s in spans}
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if thread_of.get(s.parent) == s.thread:
            kids.setdefault(s.parent, []).append(s)
    loops = [s for s in spans if s.name == "solver.loop"]
    master = loops[0].thread if loops else None

    def named(name):
        return [s for s in spans if s.name == name]

    def cpu(name):
        return sum(s.cpu_s for s in named(name))

    def self_cpu(name):
        return sum(s.cpu_s - sum(c.cpu_s for c in kids.get(s.id, ())) for s in named(name))

    return {
        "geometry.membership_s": cpu("geometry.eps_membership"),
        "geometry.max_violation_s": cpu("geometry.max_relative_violation"),
        "geometry.map_s": cpu("geometry.violated_slices"),
        "summation.reduce_s": self_cpu("solver.partial_reduction"),
        "summation.slice_adds": sum(s.count for s in named("solver.partial_reduction")),
        "solver.self_s": self_cpu("solver.loop"),
        "dynamics.translate_s": cpu("dynamics.translate"),
        "dynamics.translate_rows": sum(s.count for s in named("dynamics.translate")),
        "bsf_engine.worker_busy_s": sum(
            s.cpu_s for s in spans
            if s.thread != master and thread_of.get(s.parent) != s.thread),
        "bsf_engine.master_wait_s": sum(
            s.wall_s - sum(c.wall_s for c in kids.get(s.id, ())) for s in named(SUPERSTEP)),
        "bsf_engine.combine_s": cpu("bsf_engine.combine_reports"),
        "bsf_engine.supersteps": len(named(SUPERSTEP)),
    }


def setup_layers(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals for the spans of one set-up."""

    def total(name):
        return sum(s.cpu_s for s in spans if s.name == name)

    return {
        "geometry.system_init_s": total("geometry.InequalitySystem"),
        "harness.generate_s": total("harness.generate_model_problem"),
        "harness.load_s": total("harness.load_system"),
    }
