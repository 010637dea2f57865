"""The benchmark's own checks accept good outputs and reject bad ones.

Run from the repository root: ``python -m pytest bench/test_checks.py``.
"""

import json
import math
from pathlib import Path

import checks

EPS = 1e-7


def test_dense_check_rejects_point_just_outside_one_row():
    # unit square 0 <= x, y <= 1 plus the diagonal x + y <= 1.5
    a = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]
    b = [1.0, 1.0, 0.0, 0.0, 1.5]
    assert checks.check_dense(a, b, [0.5, 0.5], EPS) is None
    assert checks.check_dense(a, b, [1.0, 0.5], EPS) is None  # on the boundary
    assert checks.check_dense(a, b, [1.0 + EPS / 2, 0.5], EPS) is None  # within eps
    problem = checks.check_dense(a, b, [1.0 + 2 * EPS, 0.5], EPS)
    assert problem is not None and problem.startswith("row 0:")
    # the diagonal row has norm sqrt(2): a residual of 1.2 eps is inside the
    # normalised tolerance, one of 1.6 eps is outside
    d = 1.2 * EPS / 2
    assert checks.check_dense(a, b, [0.75 + d, 0.75 + d], EPS) is None
    d = 1.6 * EPS / 2
    problem = checks.check_dense(a, b, [0.75 + d, 0.75 + d], EPS)
    assert problem is not None and problem.startswith("row 4:")


def test_dense_check_rejects_nan():
    assert checks.check_dense([[1.0]], [math.nan], [0.0], EPS) is not None
    assert checks.check_dense([[1.0]], [1.0], [math.nan], EPS) is not None


def test_model_check_uses_translated_bounds():
    n, box, upper, lower = 4, 200.0, 500.0, 100.0
    shift = 0.05
    x = [shift + 40.0] * n
    assert checks.check_model(x, box, upper, lower, shift, EPS) is None
    # just below the translated lower bound x_i >= shift of one coordinate
    assert checks.check_model([shift] + x[1:], box, upper, lower, shift, EPS) is None
    problem = checks.check_model([shift - 2 * EPS] + x[1:], box, upper, lower, shift, EPS)
    assert problem is not None and problem.startswith(f"row {n}:")
    # the same point is fine for the untranslated region, which the check
    # must not fall back to
    assert checks.check_model([shift - 2 * EPS] + x[1:], box, upper, lower, 0.0, EPS) is None
    problem = checks.check_model([box + shift + 2 * EPS] + x[1:], box, upper, lower, shift, EPS)
    assert problem is not None and problem.startswith("row 0:")
    # the slab row sum x >= lower + n shift, with norm sqrt(n) = 2
    y = [(lower + n * shift) / n] * n
    assert checks.check_model(y, box, upper, lower, shift, EPS) is None
    y[0] -= 2 * 2 * EPS
    problem = checks.check_model(y, box, upper, lower, shift, EPS)
    assert problem is not None and problem.startswith(f"row {2 * n + 1}:")


def test_fixed_step_check():
    n = 1000
    assert checks.check_fixed_steps([1.0, 1.0 + 1e-15, 1.0 - 1e-15], 1.0, n) is None
    assert checks.check_fixed_steps([1.0, 1.0 + 1e-9], 1.0, n) is not None
    assert checks.check_fixed_steps([0.5], 1.0, n) is not None


def test_bit_identity_check():
    x = [0.1, -0.0, 3.0]
    assert checks.check_bit_identical(x, 5, list(x), 5) is None
    assert checks.check_bit_identical(x, 5, x, 6) is not None
    assert checks.check_bit_identical(x, 5, [0.1, 0.0, 3.0], 5) is not None
    assert checks.check_bit_identical(x, 5, [math.nextafter(0.1, 1.0), -0.0, 3.0], 5) is not None


def test_manifest_matches_run_py():
    import run

    manifest = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER
