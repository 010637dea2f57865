#!/usr/bin/env python3
"""Statement lines of ``modap`` that one benchmark workload never runs.

    PYTHONPATH=src python scripts/workload_lines.py --workload model-translate
    PYTHONPATH=src python scripts/workload_lines.py --workload random-dense --seed 3

Imports ``modap``, builds one of the benchmark's workloads as
``scripts/ab_inprocess.py`` builds them (``--seed`` seeds ``random-dense``,
11 unless it says otherwise; ``model-workers2`` runs two row blocks) and
solves it once, all under a ``sys.settrace`` line trace limited to the files
of the imported package.  The import, the set-up and the solve run in the
calling thread, as the engine does.  ``random-dense`` is also loaded from a
system file with ``load_system``, the benchmark's set-up.

The solve alone also counts the calls of ``summation._fsum_rows``, which
sums rows one ``math.fsum`` at a time, and the rows they take:
``fallback_calls`` and ``fallback_rows`` for the rows that ``row_sums``'
level 1 left undecided, ``whole_calls`` and ``whole_rows`` for blocks
handed over whole (fewer addends than ``SMALL_BLOCK``, or a largest
magnitude outside the vectorised range).

A module's statement lines are the first lines of its statements, found
with ``ast``; docstrings and ``global`` or ``nonlocal`` declarations,
which run no line of their own, are left out.
Prints one JSON object: the workload, the solve's status, iteration count
and ``math.fsum`` tally, and for each module its number of statement lines
and those that never ran, ascending.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

from ab_inprocess import WORKLOADS, Side, random_dense, write_system_file


def statement_lines(path: Path) -> set[int]:
    """The first line of each statement in the file at ``path`` that runs a
    line of its own: docstrings and declarations left out."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        documented = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
        docstring = (node.body[0] if documented
                     and ast.get_docstring(node, clean=False) is not None else None)
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.stmt) and child is not docstring
                    and not isinstance(child, (ast.Global, ast.Nonlocal))):
                lines.add(child.lineno)
    return lines


def traced(call, root: Path):
    """``call()``'s result and the lines it ran in the files directly in
    the directory ``root``, as ``{resolved path: set of line numbers}``."""
    ran: dict[Path, set[int]] = {}
    files: dict[str, set[int] | None] = {}  # by code file name; None: not traced

    def scope(frame, event, arg):  # called on each new frame
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = ran.setdefault(path, set()) if path.parent == root else None
        lines = files[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(scope)
    try:
        result = call()
    finally:
        sys.settrace(None)
    return result, ran


def fsum_tally(summation, call):
    """``call()``'s result and the calls and rows that
    ``summation._fsum_rows`` took during it, by kind."""
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
        return call(), tally
    finally:
        summation._fsum_rows = real


def run(workload: str, seed: int | None = None):
    """Import ``modap``, set up ``workload`` and solve it once; the solve's
    outcome and its :func:`fsum_tally`."""
    modap = importlib.import_module("modap")
    arrays = random_dense(seed) if workload == "random-dense" else None
    side = Side(modap, workload, arrays, workers=2 if workload == "model-workers2" else None)
    if arrays is not None:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "random-dense.txt"
            write_system_file(path, *arrays)
            side.setup(path)
    return fsum_tally(importlib.import_module("modap.summation"), side.solve)


def unrun_lines(workload: str, seed: int | None = None) -> dict:
    """The statement lines of each ``modap`` module that ``workload``'s
    import, set-up and solve never ran."""
    if "modap" in sys.modules:
        raise RuntimeError("modap is already imported; its import would not be traced")
    spec = importlib.util.find_spec("modap")
    if spec is None or not spec.submodule_search_locations:
        raise RuntimeError("no modap package on the path; set PYTHONPATH=src")
    root = Path(spec.submodule_search_locations[0]).resolve()
    (outcome, tally), ran = traced(lambda: run(workload, seed), root)
    modules = {}
    for path in sorted(root.glob("*.py")):
        lines = statement_lines(path)
        never = sorted(lines - ran.get(path, set()))
        modules[f"modap.{path.stem}"] = {"statements": len(lines), "unrun": never}
    return {"workload": workload, "seed": seed, "status": outcome.status.value,
            "iterations": outcome.iterations, **tally, "modules": modules}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default="model-translate")
    parser.add_argument("--seed", type=int,
                        help="the system's seed (random-dense only; default 11)")
    args = parser.parse_args(argv)
    if args.seed is not None and args.workload != "random-dense":
        parser.error("--seed seeds the random-dense system, for --workload random-dense")
    if args.workload == "random-dense" and args.seed is None:
        args.seed = 11
    print(json.dumps(unrun_lines(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
