#!/usr/bin/env python3
"""Rows that exact row sums leave to ``math.fsum`` in one benchmark solve.

    PYTHONPATH=src python scripts/fsum_fallback.py --workload random-dense --seed 11

Builds one of the benchmark's workloads as ``scripts/ab_inprocess.py``
builds them (``--seed`` seeds ``random-dense``, 11 unless it says
otherwise), solves it once and counts the calls of
``summation.row_sums`` that leave rows undecided after level 1, and those
rows, which ``math.fsum`` then sums one by one.  Blocks that ``row_sums``
hands to ``math.fsum`` whole (fewer addends than ``SMALL_BLOCK``, or a
largest magnitude outside the vectorised range) are counted apart.  Prints
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys

import modap
from ab_inprocess import WORKLOADS, Side, random_dense
from modap import summation


def count(workload: str, seed: int | None = None) -> dict:
    """One solve of ``workload`` and the rows it sends to ``math.fsum``."""
    arrays = random_dense(seed) if workload == "random-dense" else None
    side = Side(modap, workload, arrays, workers=2 if workload == "model-workers2" else None)
    tally = {"fallback_calls": 0, "fallback_rows": 0, "whole_calls": 0, "whole_rows": 0}
    real = summation._fsum_rows

    def fsum_rows(values, starts, which=None):
        out = real(values, starts, which)
        kind = "whole" if which is None else "fallback"
        tally[f"{kind}_calls"] += 1
        tally[f"{kind}_rows"] += out.size
        return out

    summation._fsum_rows = fsum_rows
    try:
        outcome = side.solve()
    finally:
        summation._fsum_rows = real
    return {"workload": workload, "seed": seed, "status": outcome.status.value,
            "iterations": outcome.iterations, **tally}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default="random-dense")
    parser.add_argument("--seed", type=int,
                        help="the system's seed (random-dense only; default 11)")
    args = parser.parse_args(argv)
    if args.seed is not None and args.workload != "random-dense":
        parser.error("--seed seeds the random-dense system, for --workload random-dense")
    if args.workload == "random-dense" and args.seed is None:
        args.seed = 11
    print(json.dumps(count(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
