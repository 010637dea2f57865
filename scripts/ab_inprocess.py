#!/usr/bin/env python3
"""Solve time of two checkouts of ``modap``, A/B in one process.

    python scripts/ab_inprocess.py --base ../parent --head . --workload model-translate

Loads the ``modap`` package of each checkout (``<root>/src/modap``) under
its own name, builds the chosen workload for both from the same arrays,
and checks that the two give bit-identical solutions, iteration counts and
traces (every field but the wall time).  Then it runs ``--rounds`` rounds
of ``--solves`` solves per side, the two sides taking turns within a round
and swapping which one goes first from one round to the next, so that a
drift of the machine's speed falls on both.  Each round gives the ratio of
the median solve times, head over base.  The script prints each round, the
median ratio, its quartiles and how many rounds the head was faster in;
the last line of standard output is the same as one JSON object.

The workloads are the benchmark's (``bench/run.py``), built here without
their checks and set-up timings: ``model-translate`` (the n = 1000 model
problem translating at rate 1, sequential), ``model-workers2`` (the same
through ``run_parallel`` with two workers) and ``random-dense`` (a seeded
Gaussian n = 100, m = 1000 stationary system around an interior point).
Both sides must accept the same constructor and solver arguments.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import statistics
import sys
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


class Side:
    """One checkout's package, its workload system and one solve."""

    def __init__(self, pkg, workload: str, arrays):
        self.pkg, self.workload = pkg, workload
        if arrays is None:
            self.base = pkg.generate_model_problem(pkg.ModelProblemSpec(n=MODEL_N))
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
            return self.pkg.run_parallel(source, self.config, self.pkg.EngineConfig(workers=2))
        return self.pkg.solve(source, self.config)

    def timed(self) -> float:
        gc.collect()
        t0 = time.perf_counter()
        self.solve()
        return time.perf_counter() - t0


def outcome_bits(out) -> tuple:
    """A solve's solution bits, iteration count and trace without wall times."""
    trace = [(r.k, r.h, r.step_norm, r.max_violation, r.virtual_time) for r in out.trace]
    return out.status.value, out.iterations, out.solution.tobytes(), repr(trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, required=True, help="the reference checkout")
    parser.add_argument("--head", type=Path, default=Path("."), help="the changed checkout")
    parser.add_argument("--workload", choices=WORKLOADS, default="model-translate")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--solves", type=int, default=40, help="solves per side per round")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.solves < 1:
        parser.error("--rounds and --solves must be at least 1")
    arrays = None if args.workload.startswith("model") else random_dense()
    sides = [Side(load_package(root, f"modap_{tag}"), args.workload, arrays)
             for tag, root in (("base", args.base), ("head", args.head))]
    base_bits, head_bits = (outcome_bits(side.solve()) for side in sides)
    if base_bits != head_bits:
        print(f"{args.workload}: the two checkouts' solves differ", file=sys.stderr)
        return 1
    ratios = []
    for r in range(args.rounds):
        order = sides if r % 2 == 0 else sides[::-1]
        times = {id(side): [] for side in sides}
        for _ in range(args.solves):
            for side in order:
                times[id(side)].append(side.timed())
        base_s, head_s = (statistics.median(times[id(side)]) for side in sides)
        ratios.append(head_s / base_s)
        print(f"round {r + 1:3d} ({'base' if order is sides else 'head'} first): "
              f"base {base_s * 1e3:.4f} ms, head {head_s * 1e3:.4f} ms, "
              f"ratio {ratios[-1]:.4f}")
    q1, median, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                      else ratios * 3)
    lower = sum(ratio < 1.0 for ratio in ratios)
    print(f"{args.workload}: head/base median ratio {median:.4f} [{q1:.4f}, {q3:.4f}], "
          f"head lower in {lower} of {len(ratios)} rounds")
    print(json.dumps({"workload": args.workload, "iterations": base_bits[1],
                      "rounds": len(ratios), "solves": args.solves, "median_ratio": median,
                      "q1_ratio": q1, "q3_ratio": q3, "rounds_lower": lower}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
