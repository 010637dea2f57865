#!/usr/bin/env python3
"""Set-up, solve and peak memory of the translating model problem as n grows.

Runs from the repository root and writes ``BENCH_sparse.json``:

    PYTHONPATH=src python scripts/sparse_scale.py

The model problem has m = 2n + 2 rows and 4n non-zeros.  Each n runs in a
fresh process, so that its peak RSS is its own: set-up is the median of
three ``generate_model_problem`` calls, and the solve is the median of
three sequential modap solves (lambda = 1, eps = 1e-7) while the region
translates at rate 1 per coordinate, 0.01 virtual seconds per iteration.
The dense figures that the file compares against were measured on the
same kind of machine (2 vCPUs, Python 3.11.7, numpy 2.4.6) with the
coefficient rows held as one dense ``(m, n)`` matrix.

The largest n is 8000.  Past about n = 10^4 every box-lower row is
violated after the first step, and the violated rows' slices, which the
solver still stacks as dense ``(h, n)`` rows, would approach ``8 m n``
bytes.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from modap import (
    DynamicsSpec,
    DynamicSystemSource,
    ModelProblemSpec,
    SolverConfig,
    generate_model_problem,
    solve,
)

SIZES = (1000, 2000, 4000, 8000)
REPEATS = 3
# the same problem with dense (m, n) rows: set-up, solve and peak RSS
DENSE = {
    4000: {"setup_s": 0.77, "solve_s": "0.16-0.19", "peak_rss_mb": 518},
    8000: {"setup_s": 2.5, "solve_s": 1.64, "peak_rss_mb": 1980},
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(n: int) -> dict:
    """One process's figures for the model problem of dimension n."""
    rss_before = _peak_rss_mb()
    setups = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        system = generate_model_problem(ModelProblemSpec(n=n))
        setups.append(time.perf_counter() - t0)
    solves = []
    for _ in range(REPEATS):
        source = DynamicSystemSource(
            system, DynamicsSpec(mode="translation", rate=1.0, seconds_per_iteration=0.01))
        t0 = time.perf_counter()
        out = solve(source, SolverConfig(variant="modap", step_length=1.0, eps=1e-7,
                                         max_iterations=1000))
        solves.append(time.perf_counter() - t0)
    return {
        "n": n,
        "m": system.m,
        "nnz": int(system.data.size),
        "status": out.status.value,
        "iterations": out.iterations,
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(solves),
        "peak_rss_mb": _peak_rss_mb(),
        "peak_rss_after_import_mb": rss_before,
    }


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, from the library numpy bundles, if found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--one", type=int, metavar="N",
                        help="measure n = N in this process and print one JSON line")
    parser.add_argument("--out", default="BENCH_sparse.json", metavar="PATH")
    args = parser.parse_args()
    if args.one is not None:
        print(json.dumps(measure(args.one)))
        return 0
    cases = []
    for n in SIZES:
        proc = subprocess.run([sys.executable, __file__, "--one", str(n)],
                              stdout=subprocess.PIPE, text=True, check=True)
        case = json.loads(proc.stdout.splitlines()[-1])
        if n in DENSE:
            case["dense_rows"] = DENSE[n]
        cases.append(case)
        print(f"n={n}: set-up {case['setup_s']:.4f} s, solve {case['solve_s']:.4f} s "
              f"({case['iterations']} iterations, {case['status']}), "
              f"peak RSS {case['peak_rss_mb']:.1f} MB")
    record = {
        "what": "translating model problem (rate 1, modap, lambda 1, eps 1e-7), "
                "sequential engine, CSR rows; one fresh process per n; set-up and "
                f"solve are medians of {REPEATS}",
        "command": "PYTHONPATH=src python scripts/sparse_scale.py",
        "machine": machine(),
        "dense_rows_source": "ROADMAP item 2: the same problem with the rows held as "
                             "one dense (m, n) matrix, same machine class, one run each",
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
