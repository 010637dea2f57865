#!/usr/bin/env python3
"""Solve or load time of two checkouts of ``modap``, A/B in one process.

    python scripts/ab_inprocess.py --base ../parent --head . --workload model-translate
    python scripts/ab_inprocess.py --base ../parent --workload model-workers2 --n 4000
    python scripts/ab_inprocess.py --base ../parent --workload model-workers2 --workers 7
    python scripts/ab_inprocess.py --base ../parent --setup

Loads the ``modap`` package of each checkout (``<root>/src/modap``) under
its own name, builds the chosen workload for both from the same arrays,
and checks that the two give bit-identical solutions, iteration counts and
traces (every field but the wall time).  Then it runs ``--rounds`` rounds
of ``--solves`` solves per side, the two sides taking turns within a round
and swapping which one goes first from one round to the next, so that a
drift of the machine's speed falls on both.  Each round gives the ratio of
the median solve times, head over base.  The script prints each round, the
median ratio, its quartiles and how many rounds the head was faster in;
the last line of standard output is the same as one JSON object, which
also holds each side's median solve time over all rounds in ms.

The workloads are the benchmark's (``bench/run.py``), built here without
their checks and set-up timings: ``model-translate`` (the model problem
translating at rate 1, sequential; n = 1000 unless ``--n`` says otherwise),
``model-workers2`` (the same through ``run_parallel`` with two workers, or
with ``--workers K``) and
``random-dense`` (a seeded Gaussian n = 100, m = 1000 stationary system
around an interior point, which ``--n`` does not change).
Both sides must accept the same constructor and solver arguments.

``--setup`` times ``load_system`` in place of the solves: the random-dense
arrays are written to a system file in the documented format (``n m``,
then one line of shortest round-trip floats per row, its bound last),
each ``--solves`` call loads that file, and the two loaded systems must
hold the same ``indptr``, ``indices``, ``data`` and ``b`` bytes.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("model-translate", "model-workers2", "random-dense")
MODEL_N = 1000
RANDOM_N, RANDOM_M = 100, 1000


def load_package(root: Path, name: str):
    """The ``modap`` package under ``root/src``, imported as ``name``."""
    path = root.resolve() / "src" / "modap"
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    if spec is None:
        raise SystemExit(f"no modap package under {root}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def random_dense(seed: int = 11):
    """A seeded Gaussian system ``(a, b)`` whose ball of radius 15 around a
    point at distance 250 from the origin is feasible."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((RANDOM_M, RANDOM_N))
    z = rng.standard_normal(RANDOM_N)
    z *= 250.0 / np.linalg.norm(z)
    return a, a @ z + 15.0 * np.linalg.norm(a, axis=1)


def write_system_file(path: Path, a: np.ndarray, b: np.ndarray) -> None:
    """The system file of ``(a, b)``: ``n m``, then each row and its bound.
    Not ``save_system``, so that a fault shared by a checkout's writer and
    reader cannot hide."""
    lines = [f"{a.shape[1]} {a.shape[0]}"]
    lines += [" ".join(map(repr, row + [bound])) for row, bound in zip(a.tolist(), b.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


class Side:
    """One checkout's package, its workload system and one solve."""

    def __init__(self, pkg, workload: str, arrays, n: int = MODEL_N, workers: int | None = None):
        self.pkg, self.workload, self.workers = pkg, workload, workers
        if arrays is None:
            self.base = pkg.generate_model_problem(pkg.ModelProblemSpec(n=n))
            self.spec = pkg.DynamicsSpec(mode="translation", rate=1.0,
                                         seconds_per_iteration=0.01)
        else:
            self.base = pkg.InequalitySystem(*arrays)
            self.spec = pkg.DynamicsSpec(seconds_per_iteration=0.01)
        self.config = pkg.SolverConfig(variant="modap", step_length=1.0, eps=1e-7,
                                       max_iterations=2000, record_trace=True)

    def solve(self):
        source = self.pkg.DynamicSystemSource(self.base, self.spec)
        if self.workload == "model-workers2":
            return self.pkg.run_parallel(source, self.config,
                                         self.pkg.EngineConfig(workers=self.workers))
        return self.pkg.solve(source, self.config)


def timed(call) -> float:
    gc.collect()
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def outcome_bits(out) -> tuple:
    """A solve's solution bits, iteration count and trace without wall times."""
    trace = [(r.k, r.h, r.step_norm, r.max_violation, r.virtual_time) for r in out.trace]
    return out.status.value, out.iterations, out.solution.tobytes(), repr(trace)


def system_bits(system) -> tuple:
    """A loaded system's stored rows and bounds, as bytes."""
    return tuple(getattr(system, name).tobytes() for name in ("indptr", "indices", "data", "b"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, required=True, help="the reference checkout")
    parser.add_argument("--head", type=Path, default=Path("."), help="the changed checkout")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="model-translate by default, random-dense with --setup")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--solves", type=int, default=40,
                        help="solves (loads, with --setup) per side per round")
    parser.add_argument("--setup", action="store_true",
                        help="time load_system of the random-dense file, not the solves")
    parser.add_argument("--n", type=int, default=MODEL_N,
                        help="the model problem's dimension (model workloads)")
    parser.add_argument("--workers", type=int,
                        help="the engine's row blocks K (model-workers2 only; default 2)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.solves < 1 or args.n < 1:
        parser.error("--rounds, --solves and --n must be at least 1")
    if args.workers is not None and (args.workload != "model-workers2" or args.workers < 1):
        parser.error("--workers takes a K of at least 1, for --workload model-workers2")
    if args.setup and args.workload not in (None, "random-dense"):
        parser.error("--setup loads the random-dense file, the only workload read from one")
    args.workload = args.workload or ("random-dense" if args.setup else "model-translate")
    if args.workload == "model-workers2" and args.workers is None:
        args.workers = 2
    arrays = None if args.workload.startswith("model") else random_dense()
    pkgs = [load_package(root, f"modap_{tag}")
            for tag, root in (("base", args.base), ("head", args.head))]
    with tempfile.TemporaryDirectory() as tmp:
        if args.setup:
            path = Path(tmp) / "random-dense.txt"
            write_system_file(path, *arrays)
            calls = [lambda pkg=pkg: pkg.load_system(path) for pkg in pkgs]
            bits, what = system_bits, "loaded systems"
        else:
            calls = [Side(pkg, args.workload, arrays, args.n, args.workers).solve for pkg in pkgs]
            bits, what = outcome_bits, "solves"
        return compare(args, calls, bits, what, n=args.n if arrays is None else RANDOM_N)


def compare(args, calls, bits, what: str, n: int) -> int:
    """Check that the two calls give the same bits, then time them in rounds."""
    base_bits, head_bits = (bits(call()) for call in calls)
    if base_bits != head_bits:
        print(f"{args.workload}: the two checkouts' {what} differ", file=sys.stderr)
        return 1
    ratios = []
    every = ([], [])
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        times = ([], [])
        for _ in range(args.solves):
            for side in order:
                times[side].append(timed(calls[side]))
        for side in (0, 1):
            every[side].extend(times[side])
        base_s, head_s = map(statistics.median, times)
        ratios.append(head_s / base_s)
        print(f"round {r + 1:3d} ({'base' if order[0] == 0 else 'head'} first): "
              f"base {base_s * 1e3:.4f} ms, head {head_s * 1e3:.4f} ms, "
              f"ratio {ratios[-1]:.4f}")
    q1, median, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                      else ratios * 3)
    lower = sum(ratio < 1.0 for ratio in ratios)
    print(f"{args.workload}: head/base median ratio {median:.4f} [{q1:.4f}, {q3:.4f}], "
          f"head lower in {lower} of {len(ratios)} rounds")
    base_ms, head_ms = (statistics.median(times) * 1e3 for times in every)
    print(json.dumps({"workload": args.workload, "setup": args.setup, "n": n,
                      "workers": args.workers,
                      "iterations": None if args.setup else base_bits[1],
                      "rounds": len(ratios),
                      "solves": args.solves, "median_ratio": median, "q1_ratio": q1,
                      "q3_ratio": q3, "rounds_lower": lower,
                      "base_median_ms": base_ms, "head_median_ms": head_ms}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
