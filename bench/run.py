#!/usr/bin/env python3
"""modap benchmark: solve time on three workloads, per-layer times when traced.

Run from the repository root:

    python3 bench/run.py --workload model-translate --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload builds or loads its system the way ``modap solve`` does, then
repeats ``solve`` (or ``run_parallel``) with the trace on under the virtual
clock for ``--seconds`` seconds.  There is no warm-up solve: in trial runs
the first solve was no slower than the later ones.  Every solve is checked
by :mod:`checks`, apart from the program; a solve fails when it does not
converge or does not pass a check.

``--trace 0`` prints the end-to-end metrics, measured with tracing off and
scaled to a reference speed (see :class:`SpeedReference`).
``--trace 1`` alternates untraced and traced solves, prints the per-layer
metrics from the traced ones (spans from :mod:`tracer`) and the tracing
overhead against the untraced ones.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans, per-layer CSVs and result files go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# the program is imported from this checkout's sources, never an installed copy
sys.path.insert(0, str(ROOT / "src"))

import modap  # noqa: E402
from modap import bsf_engine, cost_model, dynamics, harness, solver  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402

EPS = 1e-7
STEP_LENGTH = 1.0
SETUP_REPEATS = 7

MODEL_N = 1000
MODEL_RATE = 1.0
SECONDS_PER_ITERATION = 0.01

# random-dense: Gaussian rows around an interior point z with ||z|| = 250;
# each row's bound leaves a slack of 15 ||a_i||, so the ball of radius 15
# around z is feasible.  From x = 0 this takes about 180 iterations at
# a mean of about 160 violated rows.
RANDOM_N = 100
RANDOM_M = 1000
RANDOM_DISTANCE = 250.0
RANDOM_SLACK = 15.0

END_TO_END = {
    "solve_s": "s",
    "iter_ms": "ms",
    "setup_s": "s",
    "iterations": "count",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "geometry.membership_s": "s",
    "geometry.max_violation_s": "s",
    "geometry.map_s": "s",
    "geometry.system_init_s": "s",
    "summation.reduce_s": "s",
    "summation.slice_adds": "count",
    "solver.self_s": "s",
    "dynamics.translate_s": "s",
    "dynamics.translate_rows": "count",
    "dynamics.translate_useful_ratio": "ratio",
    "bsf_engine.worker_busy_s": "s",
    "bsf_engine.master_wait_s": "s",
    "bsf_engine.combine_s": "s",
    "bsf_engine.supersteps": "count",
    "harness.generate_s": "s",
    "harness.load_s": "s",
    "cost_model.map_ops_per_s": "1/s",
    "cost_model.k_max": "count",
    "trace.overhead_pct": "%",
}


@dataclass(frozen=True)
class Workload:
    name: str
    system: str  # "model" (generated) or "random" (loaded from a file)
    workers: int  # 0 = sequential engine
    # about ten times the iterations a correct solve takes, so that a solve
    # that stops converging fails within a run's time instead of outlasting it
    max_iterations: int

    @property
    def solver_config(self) -> solver.SolverConfig:
        return solver.SolverConfig(variant=solver.VARIANT_MODAP, step_length=STEP_LENGTH,
                                   eps=EPS, max_iterations=self.max_iterations,
                                   record_trace=True)

    @property
    def dynamics_spec(self) -> dynamics.DynamicsSpec:
        if self.system == "model":
            return dynamics.DynamicsSpec(mode=dynamics.TRANSLATION, rate=MODEL_RATE,
                                         seconds_per_iteration=SECONDS_PER_ITERATION)
        return dynamics.DynamicsSpec(seconds_per_iteration=SECONDS_PER_ITERATION)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("model-translate", "model", 0, 50),
        Workload("random-dense", "random", 0, 2000),
        Workload("model-workers2", "model", 2, 50),
    )
}


def random_dense_arrays(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The seeded random-dense system ``(a, b)`` and its interior point z."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((RANDOM_M, RANDOM_N))
    z = rng.standard_normal(RANDOM_N)
    z *= RANDOM_DISTANCE / np.linalg.norm(z)
    b = a @ z + RANDOM_SLACK * np.linalg.norm(a, axis=1)
    return a, b, z


def write_system_file(path: Path, a: np.ndarray, b: np.ndarray) -> None:
    """System file in the documented format: ``n m``, then m rows of n + 1
    shortest round-trip floats.  Written here rather than by ``save_system``
    so that a fault shared by the program's writer and reader cannot hide."""
    lines = [f"{a.shape[1]} {a.shape[0]}"]
    for row, bound in zip(a.tolist(), b.tolist()):
        lines.append(" ".join(repr(v) for v in row + [bound]))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


class Bench:
    """One workload at one seed: set-up, solves, checks, failure count."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spec = harness.ModelProblemSpec(n=MODEL_N)
        self.arrays = None
        self.system_file = None
        if workload.system == "random":
            self.arrays = random_dense_arrays(seed)
            a, b, z = self.arrays
            self._record(checks.check_dense(a.tolist(), b.tolist(), z.tolist(), EPS),
                         "generated interior point")
            self.system_file = OUT_DIR / f"random-dense-seed{seed}.txt"
            write_system_file(self.system_file, a, b)
        self.reference = None

    def _record(self, problem: str | None, what: str) -> bool:
        if problem:
            self.problems.append(f"{what}: {problem}")
            print(f"CHECK FAILED {what}: {problem}", file=sys.stderr)
        return problem is None

    def setup(self) -> dynamics.DynamicSystemSource:
        """What ``modap solve`` does before its first iteration."""
        if self.system_file is None:
            system = harness.generate_model_problem(self.spec)
        else:
            system = harness.load_system(self.system_file)
        return dynamics.DynamicSystemSource(system, self.workload.dynamics_spec)

    def prepare(self, source):
        """Check the set-up's system and, for the engine, make the sequential
        reference solve; return the system to solve."""
        base = source.snapshot()
        if self.arrays is not None:
            same = (np.array_equal(base.a, self.arrays[0])
                    and np.array_equal(base.b, self.arrays[1]))
            self._record(None if same else "loaded arrays differ from the generated ones",
                         "load_system")
        if self.workload.workers:
            _, self.reference = self.solve(base, workers=0)
        return base

    def solve(self, base, workers: int | None = None) -> tuple[float, solver.SolveOutcome]:
        """One timed, checked solve on a fresh source over ``base``."""
        workers = self.workload.workers if workers is None else workers
        source = dynamics.DynamicSystemSource(base, self.workload.dynamics_spec)
        gc.collect()
        t0 = time.perf_counter()
        config = self.workload.solver_config
        if workers:
            out = bsf_engine.run_parallel(source, config,
                                          bsf_engine.EngineConfig(workers=workers))
        else:
            out = solver.solve(source, config)
        wall = time.perf_counter() - t0
        self.attempted += 1
        if not self._check(out, workers):
            self.failed += 1
        return wall, out

    def _check(self, out: solver.SolveOutcome, workers: int) -> bool:
        what = f"solve {self.attempted} ({'workers=%d' % workers if workers else 'sequential'})"
        if not self._record(None if out.converged else f"status {out.status.value}", what):
            return False
        x = out.solution.tolist()
        if self.arrays is None:
            shift = MODEL_RATE * (out.iterations * SECONDS_PER_ITERATION)
            problem = checks.check_model(x, self.spec.box_upper, self.spec.sum_upper,
                                         self.spec.sum_lower, shift, EPS)
        else:
            problem = checks.check_dense(self.arrays[0].tolist(), self.arrays[1].tolist(),
                                         x, EPS)
        ok = self._record(problem, f"{what} feasibility")
        ok &= self._record(checks.check_fixed_steps([r.step_norm for r in out.trace],
                                                    STEP_LENGTH, len(x)),
                           f"{what} fixed step")
        if workers and self.reference is not None:
            ref = self.reference
            ok &= self._record(checks.check_bit_identical(x, out.iterations,
                                                          ref.solution.tolist(),
                                                          ref.iterations),
                               f"{what} bit identity with the sequential engine")
        return ok


class SpeedReference:
    """A fixed kernel, timed next to every measurement, that tracks how fast
    the machine runs at that moment.

    On a shared host the same solve can take 20 % longer a minute later.
    The kernel is the inner loop the program's exact kernels are made of
    (``math.fsum`` over a numpy product turned into a list) on fixed data,
    in the benchmark's own code, so no change to the program moves it.
    Scaling a measured time by ``REFERENCE_S / kernel time`` expresses it
    at the reference speed.
    """

    REFERENCE_S = 0.13  # median kernel time, 2-vCPU Xeon VM, Python 3.11.7

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.standard_normal((64, 1000))
        self.x = rng.standard_normal(1000)
        self.times = []

    def measure(self) -> None:
        t0 = time.perf_counter()
        for _ in range(32):
            for row in self.rows:
                math.fsum((row * self.x).tolist())
        self.times.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor for a measurement between the last two kernel timings."""
        return self.REFERENCE_S / statistics.fmean(self.times[-2:])


def run_end_to_end(bench: Bench, seconds: float):
    """End-to-end metrics at the reference speed, the raw medians, and every
    sample behind them."""
    speed = SpeedReference()
    speed.measure()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        source = bench.setup()
        setup_times.append(time.perf_counter() - t0)
    speed.measure()
    setup_scale = speed.scale()
    base = bench.prepare(source)
    walls, scaled, per_iter, iterations = [], [], [], []
    speed.measure()
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        wall, out = bench.solve(base)
        speed.measure()
        walls.append(wall)
        scaled.append(wall * speed.scale())
        iterations.append(out.iterations)
        per_iter.append(scaled[-1] / max(out.iterations, 1))
    print(f"# {len(walls)} timed solves, {len(setup_times)} set-ups; "
          f"reference kernel {min(speed.times)!r} to {max(speed.times)!r} s")
    metrics = {
        "solve_s": statistics.median(scaled),
        "iter_ms": 1000.0 * statistics.median(per_iter),
        "setup_s": statistics.median(setup_times) * setup_scale,
        "iterations": statistics.median_low(iterations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "solve_wall_s": statistics.median(walls),
        "setup_wall_s": statistics.median(setup_times),
        "reference_kernel_s": statistics.median(speed.times),
    }
    samples = {"solve_wall_s": walls, "solve_scaled_s": scaled,
               "setup_wall_s": setup_times, "reference_kernel_s": speed.times}
    return metrics, raw, samples


def run_traced(bench: Bench, seconds: float, spans_path: Path):
    """Per-layer metrics from traced solves, and the solve times behind the
    tracing overhead."""
    trace = tracer.Tracer()
    setup_rows = []
    with tracer.patched(trace):
        for i in range(SETUP_REPEATS):
            trace.request = f"setup-{i + 1}"
            start = len(trace.spans)
            source = bench.setup()
            setup_rows.append(tracer.setup_layers(trace.spans[start:]))
    base = bench.prepare(source)
    plain, traced, rows, iterations = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(bench.solve(base)[0])
        with tracer.patched(trace):
            trace.request = f"solve-{len(traced) + 1}"
            start = len(trace.spans)
            wall, out = bench.solve(base)
        traced.append(wall)
        iterations.append(out.iterations)
        rows.append(tracer.solve_layers(trace.spans[start:]))
    trace.write(spans_path)

    metrics = {name: statistics.median(r[name] for r in setup_rows)
               for name in setup_rows[0]}
    metrics.update({name: statistics.median(r[name] for r in rows) for name in rows[0]})
    m, n = base.m, base.n
    its = statistics.median(iterations)
    rows_translated = metrics["dynamics.translate_rows"]
    metrics["dynamics.translate_useful_ratio"] = (
        m * its / rows_translated if rows_translated else 0.0)
    c_map = cost_model.operation_counts(n, m).c_map
    metrics["cost_model.map_ops_per_s"] = c_map * its / metrics["geometry.map_s"]
    tau_op = 1.0 / metrics["cost_model.map_ops_per_s"]
    metrics["cost_model.k_max"] = cost_model.k_max(cost_model.CostParams(n=n, m=m, tau_op=tau_op))
    # each traced solve runs right after an untraced one, so the pair's ratio
    # is little moved by the machine's drifting speed
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(t / p for t, p in zip(traced, plain)) - 1.0)
    print(f"# {len(traced)} traced and {len(plain)} untraced solves; "
          f"fitted tau_op = {tau_op!r} s/op; k_max with it (tau_tr and latency "
          f"at their assumed defaults) = {metrics['cost_model.k_max']!r}")
    return metrics, {"untraced_wall_s": plain, "traced_wall_s": traced}


def run_one(args) -> int:
    if Path(modap.__file__).resolve().parent != ROOT / "src" / "modap":
        print(f"error: modap imported from {modap.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    raw = {}
    if args.trace:
        metrics, samples = run_traced(bench, args.seconds, stem.with_suffix(".spans.jsonl"))
        units = PER_LAYER
    else:
        metrics, raw, samples = run_end_to_end(bench, args.seconds)
        units = END_TO_END
    result = {
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    lines = ["metric,value,unit"] + [f"{k},{v['value']!r},{v['unit']}"
                                     for k, v in result["metrics"].items()]
    stem.with_suffix(".csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    record = {**result, "raw": raw, "samples": samples}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    if bench.system_file is not None:
        bench.system_file.unlink()
    for name, entry in result["metrics"].items():
        print(f"{workload.name} {name} {entry['value']!r} {entry['unit']}")
    for name, value in raw.items():
        print(f"{workload.name} raw {name} {value!r} s")
    print(f"{workload.name} attempted {bench.attempted} failed {bench.failed}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    if not args.trace:
        speedup = (results["model-translate"]["metrics"]["solve_s"]["value"]
                   / results["model-workers2"]["metrics"]["solve_s"]["value"])
        print(f"# measured engine speedup, K = 2 over sequential: {speedup!r}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
