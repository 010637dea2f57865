#!/usr/bin/env python3
"""Exactly rounded row sums against ``math.fsum`` on the solver's block shapes.

Runs from the repository root and writes ``BENCH_summation.json``:

    PYTHONPATH=src python scripts/sum_kernel.py

Every block is seeded standard normal.  The workload shapes are those the
benchmark's workloads sum: ``(h, 100)`` residual products and ``(100, h)``
transposed slices (the column sums) of a random-dense pass with h violated
or unsettled rows, the ``(2, 1000)`` stacked translated row and ``(1,
1000)`` exact rows of the n = 1000 model problem, and a ``(1, 100)`` single
row.  The model problem's set-up squares (2000 one-entry rows and 2 full
rows of 1000) are its own squared entries, summed in the segment form.
Each case is timed three ways: ``row_sums`` as the solver calls it, one
``math.fsum`` per row or segment (the small-block path), and the vectorised levels
with the small-block cut-off lifted.  The three take turns, nine repeats of
the mean of 20 calls each, and each is reported as the median and
quartiles of its repeats; ``path`` says which of the other two
``row_sums`` takes.  On the fit shapes, blocks on both sides of the
cut-off, least squares fits the medians of each of the two paths as ``c0 +
c1 size + c2 h`` and reports where they cross, in the ``size + k h`` form
of ``summation.SMALL_BLOCK``.  The level-1 decision (``summation._rounded``)
is timed the same way in its two forms, Python floats and numpy, on 1 to 32
rows, and a line ``c0 + c1 h`` fitted to each gives the row count at which
they cross, against ``summation.FEW_ROWS``.  The whole run takes a few
seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from modap import ModelProblemSpec, generate_model_problem, summation
from sparse_scale import machine

WORKLOAD_SHAPES = [(h, 100) for h in (50, 160, 243)] + [(100, h) for h in (50, 160, 243)] + [
    (2, 1000), (1, 1000), (1, 100)]
# about 125 to 1000 elements in rows of 2 to 1000, on both sides of the cut-off
FIT_SHAPES = [(1, 125), (1, 250), (1, 500), (1, 1000), (2, 125), (2, 250), (2, 500),
              (4, 64), (4, 125), (8, 32), (8, 64), (16, 16), (16, 32), (32, 8), (32, 16),
              (64, 4), (64, 8), (125, 2), (250, 2)]
ROUNDED_ROWS = [1, 2, 4, 6, 8, 10, 12, 14, 16, 20, 24, 32]
CALLS = 20
REPEATS = 9


def _times_us(fns: dict, args) -> dict:
    """Median and quartiles over REPEATS of each function's mean time per
    call, the functions taking turns."""
    runs = {key: [] for key in fns}
    for _ in range(REPEATS):
        for key, fn in fns.items():
            t0 = time.perf_counter()
            for _ in range(CALLS):
                fn(*args)
            runs[key].append((time.perf_counter() - t0) / CALLS * 1e6)
    out = {}
    for key, times in runs.items():
        q1, median, q3 = statistics.quantiles(times, n=4)
        out[key] = {"median": median, "q1": q1, "q3": q3}
    return out


def _fsum_rows(values: np.ndarray, starts=None) -> np.ndarray:
    rows = values.tolist()
    if starts is not None:
        rows = [rows[lo:hi] for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [len(rows)])]
    return np.array([math.fsum(row) for row in rows], dtype=np.float64)


def _vectorised(*args) -> np.ndarray:
    cut, summation.SMALL_BLOCK = summation.SMALL_BLOCK, 0
    try:
        return summation.row_sums(*args)
    finally:
        summation.SMALL_BLOCK = cut


def _timed(args, what: str) -> dict:
    """The path ``row_sums`` takes on ``args`` and the three timings, after
    checking that all three give the same bits."""
    want = _fsum_rows(*args).tobytes()
    if not summation.row_sums(*args).tobytes() == want == _vectorised(*args).tobytes():
        raise RuntimeError(f"row sums of {what} differ from math.fsum")
    return {
        "path": "fsum" if args[0].size < summation.SMALL_BLOCK else "vectorised",
        **_times_us({"row_sums_us": summation.row_sums, "fsum_us": _fsum_rows,
                     "vectorised_us": _vectorised}, args),
    }


def measure(shape) -> dict:
    h, n = shape
    block = np.random.default_rng(h * 10007 + n).standard_normal(shape)
    return {"shape": [h, n], **_timed((block,), f"a {shape} block")}


def measure_setup_squares(n: int = 1000) -> dict:
    """The model problem's squared entries, one segment per row."""
    system = generate_model_problem(ModelProblemSpec(n=n))
    starts = system.indptr[:-1]
    widths, counts = np.unique(np.diff(system.indptr), return_counts=True)
    return {"segments": [[int(c), int(w)] for c, w in zip(counts, widths)],
            **_timed((system.data * system.data, starts), "the set-up squares")}


def measure_rounded(h: int) -> dict:
    """Both forms of the level-1 decision on h rows of a standard normal
    ``tau1`` and a ``tau2`` some 2^-40 smaller, after checking they agree."""
    rng = np.random.default_rng(h)
    args = (rng.standard_normal(h), rng.standard_normal(h) * 2.0 ** -40, 2.0 ** -80)
    few, rows = summation._rounded_few(*args), summation._rounded_rows(*args)
    if not all(a.tobytes() == b.tobytes() for a, b in zip(few, rows)):
        raise RuntimeError(f"the two forms of the level-1 decision differ on {h} rows")
    return {"rows": h, **_times_us({"few_us": summation._rounded_few,
                                    "rows_us": summation._rounded_rows}, args)}


def rounded_crossover(cases: list[dict]) -> dict:
    """Least-squares lines ``c0 + c1 h`` (us) of both forms of the level-1
    decision, and the row count at which they cost the same."""
    x = np.array([[1.0, c["rows"]] for c in cases])
    f, v = (np.linalg.lstsq(x, np.array([c[key]["median"] for c in cases]), rcond=None)[0]
            for key in ("few_us", "rows_us"))
    return {
        "few_us": {"fixed": f[0], "per_row": f[1]},
        "rows_us": {"fixed": v[0], "per_row": v[1]},
        "rows": (v[0] - f[0]) / (f[1] - v[1]),
        "few_rows": summation.FEW_ROWS,
    }


def crossover(cases: list[dict]) -> dict:
    """Least-squares fits ``c0 + c1 size + c2 h`` (us) of both paths, and
    the ``size + k h`` at which they cost the same."""
    x = np.array([[1.0, c["shape"][0] * c["shape"][1], c["shape"][0]] for c in cases])
    fits = {}
    for key in ("fsum_us", "vectorised_us"):
        y = np.array([c[key]["median"] for c in cases])
        fits[key] = np.linalg.lstsq(x, y, rcond=None)[0]
    f, v = fits["fsum_us"], fits["vectorised_us"]
    per_element = f[1] - v[1]
    return {
        "fsum_us": {"fixed": f[0], "per_element": f[1], "per_row": f[2]},
        "vectorised_us": {"fixed": v[0], "per_element": v[1], "per_row": v[2]},
        "k": (f[2] - v[2]) / per_element,
        "size_plus_k_h": (v[0] - f[0]) / per_element,
        "small_block": summation.SMALL_BLOCK,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="BENCH_summation.json", metavar="PATH")
    args = parser.parse_args()
    workload = [measure(shape) for shape in WORKLOAD_SHAPES]
    segments = [measure_setup_squares()]
    fit = [measure(shape) for shape in FIT_SHAPES]
    for case in workload + segments + fit:
        label = (str(tuple(case["shape"])) if "shape" in case
                 else " + ".join(f"{h}x{w}" for h, w in case["segments"]))
        print(f"{label:>12} {case['path']:>10}:", ", ".join(
            f"{key[:-3]} {t['median']:6.1f} [{t['q1']:6.1f}, {t['q3']:6.1f}] us"
            for key, t in case.items() if key.endswith("_us")))
    cross = crossover(fit)
    print(f"paths cross at size + {cross['k']:.1f} h = {cross['size_plus_k_h']:.0f} "
          f"(SMALL_BLOCK = {summation.SMALL_BLOCK})")
    rounded = [measure_rounded(h) for h in ROUNDED_ROWS]
    for case in rounded:
        print(f"{case['rows']:>4} rows decided:", ", ".join(
            f"{key[:-3]} {t['median']:5.2f} [{t['q1']:5.2f}, {t['q3']:5.2f}] us"
            for key, t in case.items() if key.endswith("_us")))
    rounded_cross = rounded_crossover(rounded)
    print(f"decision forms cross at {rounded_cross['rows']:.1f} rows "
          f"(FEW_ROWS = {summation.FEW_ROWS})")
    record = {
        "what": "summation.row_sums on seeded standard normal blocks and on the n = 1000 "
                "model problem's set-up squares as segments, against one math.fsum per "
                "row or segment and against the vectorised levels with the "
                "small-block cut-off lifted, and the level-1 decision in Python floats "
                f"against numpy; median and quartiles of {REPEATS} repeats, "
                f"taken in turns, of the mean of {CALLS} calls, in microseconds",
        "command": "PYTHONPATH=src python scripts/sum_kernel.py",
        "machine": machine(),
        "workload_shapes": workload,
        "segment_shapes": segments,
        "fit_shapes": fit,
        "crossover": cross,
        "rounded_rows": rounded,
        "rounded_crossover": rounded_cross,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
