#!/usr/bin/env python3
"""Exactly rounded row sums against ``math.fsum`` on the solver's block shapes.

Runs from the repository root and writes ``BENCH_summation.json``:

    PYTHONPATH=src python scripts/sum_kernel.py

Every block is seeded standard normal.  The workload shapes are those the
benchmark's workloads sum: ``(h, 100)`` residual products and ``(100, h)``
transposed slices (the column sums) of a random-dense pass with h violated
or unsettled rows, the ``(2, 1000)`` stacked translated row and ``(1,
1000)`` exact rows of the n = 1000 model problem, and a ``(1, 100)`` single
row.  The model problem's set-up sums the squares of its rows that store
more than one entry, its 2 full rows of 1000: one ``(2, 1000)`` block of
squared entries (its 2000 one-entry rows take their squares without a
sum).  Each case is timed three ways: ``row_sums`` as the solver calls it,
one ``math.fsum`` per row (the small-block path), and the
vectorised path with the small-block cut-off lifted.  Each group of cases
is timed in nine repeats, and each repeat goes round every case of the
group and its three functions in turn, timing the mean of 20 calls each,
so that a drift of the machine's speed falls on every case of the group
alike; each is reported as the median and quartiles of its repeats, and
``path`` says which of the other two ``row_sums`` takes.  On the fit
shapes, blocks of 125 to 1000 elements on both sides of the cut-off,
least squares fits the medians of each of the two paths as ``c0 + c1
size + c2 h`` and reports where they cross, in the ``size + k h`` form of
``summation.SMALL_BLOCK``.  The short-row shapes, blocks past the cut-off
in rows of 8 to 16 addends, whose sums fall on a midpoint more often than
long rows' and then go to ``math.fsum`` after the vectorised pass, are
timed the same way but not fitted.  The level-1 decision is timed the
same way in its two forms, on 1 to 32 rows: Python floats
(``summation._decided``, with the list conversions around it that a block
of few rows pays in ``row_sums``) and numpy (``summation._rounded_rows``);
a line ``c0 + c1 h`` fitted to each gives the row count at which they
cross, against ``summation.FEW_ROWS``.  The whole run takes a few seconds.
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
# about 125 to 1000 elements in rows of 2 to 1000, on both sides of the
# cut-off, with 320 to 448 elements just below it
FIT_SHAPES = [(1, 125), (1, 250), (1, 500), (1, 1000), (2, 125), (2, 250), (2, 500),
              (4, 64), (4, 125), (8, 32), (8, 64), (16, 16), (16, 32), (32, 8), (32, 16),
              (64, 4), (64, 8), (125, 2), (250, 2),
              (1, 384), (2, 160), (4, 112), (8, 48), (16, 24), (20, 16), (28, 16), (48, 8),
              (56, 8), (96, 4), (160, 2), (224, 2)]
# past the cut-off in short rows: random-dense column sums at h = 8 and 12
SHORT_ROW_SHAPES = [(64, 16), (125, 8), (100, 8), (100, 12)]
ROUNDED_ROWS = [1, 2, 4, 6, 8, 10, 12, 14, 16, 20, 24, 32]
CALLS = 20
REPEATS = 9


def _times_us(cases: list) -> list[dict]:
    """For each case, a pair of a dict of functions and their arguments,
    the median and quartiles over REPEATS of each function's mean time per
    call; each repeat goes round every case and function in turn."""
    runs = [{key: [] for key in fns} for fns, _ in cases]
    for _ in range(REPEATS):
        for (fns, args), run in zip(cases, runs):
            for key, fn in fns.items():
                t0 = time.perf_counter()
                for _ in range(CALLS):
                    fn(*args)
                run[key].append((time.perf_counter() - t0) / CALLS * 1e6)
    return [{key: _quartiles(times) for key, times in run.items()} for run in runs]


def _quartiles(times: list) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def _fsum_rows(block: np.ndarray) -> np.ndarray:
    return np.array([math.fsum(row) for row in block.tolist()], dtype=np.float64)


def _vectorised(block: np.ndarray) -> np.ndarray:
    cut, summation.SMALL_BLOCK = summation.SMALL_BLOCK, 0
    try:
        return summation.row_sums(block)
    finally:
        summation.SMALL_BLOCK = cut


SUM_PATHS = {"row_sums_us": summation.row_sums, "fsum_us": _fsum_rows,
             "vectorised_us": _vectorised}


def measure(blocks: list) -> list[dict]:
    """The shape, the path ``row_sums`` takes and the three timings of each
    block, timed round-robin, after checking that all three paths give the
    same bits."""
    for block in blocks:
        want = _fsum_rows(block).tobytes()
        if not summation.row_sums(block).tobytes() == want == _vectorised(block).tobytes():
            raise RuntimeError(f"row sums of a {block.shape} block differ from math.fsum")
    times = _times_us([(SUM_PATHS, (block,)) for block in blocks])
    return [{"shape": list(block.shape),
             "path": "fsum" if block.size < summation.SMALL_BLOCK else "vectorised", **t}
            for block, t in zip(blocks, times)]


def seeded(shape) -> np.ndarray:
    h, n = shape
    return np.random.default_rng(h * 10007 + n).standard_normal(shape)


def setup_squares(n: int = 1000) -> np.ndarray:
    """The squared entries the model problem's set-up sums: those of its
    rows that store more than one entry, its two full rows, a block."""
    system = generate_model_problem(ModelProblemSpec(n=n))
    wide = np.flatnonzero(np.diff(system.indptr) > 1)
    block = system._gather(wide)[0]
    return block * block


def decided_block(tau1: np.ndarray, tau2: np.ndarray, bound: float):
    """``summation._decided`` as ``row_sums`` calls it on a block of a few
    rows: arrays made lists in, the two lists made arrays out."""
    res, sure = summation._decided(tau1.tolist(), tau2.tolist(), bound)
    return np.array(res), np.array(sure)


def measure_rounded(rows: list[int]) -> list[dict]:
    """Both forms of the level-1 decision on h rows of a standard normal
    ``tau1`` and a ``tau2`` some 2^-40 smaller, for each h, timed
    round-robin, after checking they agree."""
    cases = []
    for h in rows:
        rng = np.random.default_rng(h)
        args = (rng.standard_normal(h), rng.standard_normal(h) * 2.0 ** -40, 2.0 ** -80)
        few, many = decided_block(*args), summation._rounded_rows(*args)
        if not all(a.tobytes() == b.tobytes() for a, b in zip(few, many)):
            raise RuntimeError(f"the two forms of the level-1 decision differ on {h} rows")
        cases.append(({"few_us": decided_block, "rows_us": summation._rounded_rows}, args))
    return [{"rows": h, **t} for h, t in zip(rows, _times_us(cases))]


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
    workload = measure([seeded(shape) for shape in WORKLOAD_SHAPES])
    setup = measure([setup_squares()])
    fit = measure([seeded(shape) for shape in FIT_SHAPES])
    short = measure([seeded(shape) for shape in SHORT_ROW_SHAPES])
    for case in workload + setup + fit + short:
        print(f"{str(tuple(case['shape'])):>12} {case['path']:>10}:", ", ".join(
            f"{key[:-3]} {t['median']:6.1f} [{t['q1']:6.1f}, {t['q3']:6.1f}] us"
            for key, t in case.items() if key.endswith("_us")))
    cross = crossover(fit)
    print(f"paths cross at size + {cross['k']:.1f} h = {cross['size_plus_k_h']:.0f} "
          f"(SMALL_BLOCK = {summation.SMALL_BLOCK})")
    rounded = measure_rounded(ROUNDED_ROWS)
    for case in rounded:
        print(f"{case['rows']:>4} rows decided:", ", ".join(
            f"{key[:-3]} {t['median']:5.2f} [{t['q1']:5.2f}, {t['q3']:5.2f}] us"
            for key, t in case.items() if key.endswith("_us")))
    rounded_cross = rounded_crossover(rounded)
    print(f"decision forms cross at {rounded_cross['rows']:.1f} rows "
          f"(FEW_ROWS = {summation.FEW_ROWS})")
    record = {
        "what": "summation.row_sums on seeded standard normal blocks and on the (2, 1000) "
                "block of squares the n = 1000 model problem's set-up sums, against one "
                "math.fsum per row and against the vectorised path with the "
                "small-block cut-off lifted, and the level-1 decision in Python floats "
                f"against numpy; median and quartiles of {REPEATS} repeats, each going "
                f"round every case of its group in turn, of the mean of {CALLS} calls, "
                "in microseconds",
        "command": "PYTHONPATH=src python scripts/sum_kernel.py",
        "machine": machine(),
        "workload_shapes": workload,
        "setup_shapes": setup,
        "fit_shapes": fit,
        "short_row_shapes": short,
        "crossover": cross,
        "rounded_rows": rounded,
        "rounded_crossover": rounded_cross,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
