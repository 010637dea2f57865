"""The filtered row pass against the unfiltered oracles in ``oracles.py``.

The filter may only decide which rows skip the exact path, so every result
must match the oracle bit for bit, at points on and a few ulps off the
hyperplanes, at x = 0, at subnormal and huge magnitudes, for rows whose
squared norm has underflowed, and on translated systems.  A solve makes one
pass per (snapshot, point).
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import modap.dynamics as dynamics
import modap.geometry as geometry
import modap.solver as solver
import oracles
from modap import (
    DynamicsSpec,
    DynamicSystemSource,
    EngineConfig,
    InequalitySystem,
    ModelProblemSpec,
    SolverConfig,
    eps_membership,
    generate_model_problem,
    max_relative_violation,
    run_parallel,
    solve,
    translate,
)
from modap.geometry import violated_slices
from modap.summation import exact_dot

# row and point scales: 2^-530 puts a squared row norm in the subnormal
# range (like [1e-160]), 2^-1060 makes the coordinates themselves subnormal,
# 2^450 and 2^500 push products towards the top of the range and past it
ROW_SCALES = [-530, -200, 0, 0, 0, 200, 450]
POINT_SCALES = [-1060, -500, 0, 0, 0, 300, 500]


def _outcome(fn, *args):
    """Result or exception type, so that exact-path overflow compares too."""
    try:
        return ("ok", fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return ("raised", type(exc))


def _bits(value):
    return value if value[0] == "raised" else ("ok", np.float64(value[1]).tobytes())


def _pass_bits(value):
    """Bits of a row pass's ``(slices, max_violation)`` outcome."""
    if value[0] == "raised":
        return value
    slices, worst = value[1]
    return ("ok", [d.tobytes() for d in slices], np.float64(worst).tobytes())


def _membership_oracle(sys, x, eps):
    # the one pass evaluates every unsettled row, so an overflow in the exact
    # path raises even where the old loop had already returned False
    oracles.max_relative_violation(sys, x)
    return oracles.eps_membership(sys, x, eps)


def _scaled(draw, scales, size):
    """A vector at one drawn scale; with ``spread``, its entries differ by
    up to 2^60, so that float64 sums of their products cancel badly."""
    scale = 2.0 ** draw(st.sampled_from(scales))
    coef = st.one_of(st.integers(-4, 4).map(float),
                     st.floats(-5, 5, allow_nan=False, allow_subnormal=False))
    vec = np.array([draw(coef) for _ in range(size)]) * scale
    if draw(st.booleans()):  # spread
        vec *= 2.0 ** np.array([draw(st.sampled_from([0, 0, 30, 60])) for _ in range(size)])
    return vec


def _near(value, ulps):
    """``value`` moved by ``ulps`` units in the last place."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, toward)
    return value


@st.composite
def filter_cases(draw):
    """A system (base or translated), its unfiltered twin, and a point.

    Bounds are drawn at random, at 0, or a few ulps from ``<a_i, x>``, so
    that many rows sit on or next to their hyperplane at x.
    """
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    a = np.array([_scaled(draw, ROW_SCALES, n) for _ in range(m)])
    x = np.zeros(n) if draw(st.booleans()) else _scaled(draw, POINT_SCALES, n)
    v = _scaled(draw, POINT_SCALES, n) if draw(st.booleans()) else None
    b = np.empty(m)
    try:
        for i in range(m):
            kind = draw(st.sampled_from(["near", "near", "zero", "random"]))
            if kind == "zero":
                b[i] = 0.0
            elif kind == "random":
                b[i] = draw(st.floats(-5, 5)) * 2.0 ** draw(st.sampled_from(POINT_SCALES))
            else:
                target = exact_dot(a[i], x)
                if v is not None:
                    target -= exact_dot(a[i], v)
                b[i] = _near(target, draw(st.integers(-3, 3)))
        assume(np.isfinite(b).all())
        base = InequalitySystem(a, b)
        if v is None:
            return base, base, x
        # the oracle rejects a translated bound that overflows
        return translate(base, v), oracles.translate(base, v), x
    except (ArithmeticError, ValueError):
        assume(False)


# huge magnitudes overflow in the exact path on purpose
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(filter_cases(), st.data())
def test_filtered_kernels_equal_the_oracles_bit_for_bit(case, data):
    fast, exact, x = case
    m = fast.m
    start = data.draw(st.integers(0, m - 1))
    stop = data.draw(st.integers(start + 1, m))
    # a cover of all rows by consecutive ranges, some possibly empty
    cuts = sorted(data.draw(st.lists(st.integers(0, m), max_size=3)))
    cover = list(zip([0] + cuts, cuts + [m]))
    # the filtered pass runs first, on a system whose translated bounds
    # have not been materialised yet
    ranged = _outcome(violated_slices, fast, x, start, stop)
    parts = [_outcome(violated_slices, fast, x, lo, hi) for lo, hi in cover]
    got = [
        _pass_bits(ranged),
        [_pass_bits(part) for part in parts],
        _bits(_outcome(max_relative_violation, fast, x)),
    ]
    for eps in (1e-7, 5e-324, 1.0):
        got.append(_outcome(eps_membership, fast, x, eps))
    want = [
        _pass_bits(_outcome(oracles.row_pass, exact, x, start, stop)),
        [_pass_bits(_outcome(oracles.row_pass, exact, x, lo, hi)) for lo, hi in cover],
        _bits(_outcome(oracles.max_relative_violation, exact, x)),
    ]
    for eps in (1e-7, 5e-324, 1.0):
        want.append(_outcome(_membership_oracle, exact, x, eps))
    assert got == want
    if ranged[0] == "ok":
        assert ranged[1][0].shape == (len(got[0][1]), fast.n)
    # the maximum over a cover of the rows is the full pass's maximum
    if all(part[0] == "ok" for part in parts):
        assert _bits(("ok", max(part[1][1] for part in parts))) == got[2]
    assert fast.b.tobytes() == exact.b.tobytes()


def test_tiny_row_with_underflowed_norm():
    # ||a||^2 = 1e-320 is subnormal; the cached norm is off by about 1e-4
    # relative, so the filter must not trust it
    sys = InequalitySystem([[1e-160, 0.0]], [1e-160])
    for x in ([1.0, 5.0], [math.nextafter(1.0, 2.0), 0.0], [math.nextafter(1.0, 0.0), 0.0]):
        x = np.array(x)
        assert max_relative_violation(sys, x) == oracles.max_relative_violation(sys, x)
        assert _pass_bits(("ok", violated_slices(sys, x))) == _pass_bits(
            ("ok", oracles.row_pass(sys, x)))


def _model_source(n):
    return DynamicSystemSource(
        generate_model_problem(ModelProblemSpec(n=n)),
        DynamicsSpec(mode="translation", rate=1.0),
    )


def test_each_pass_evaluates_few_rows_exactly(monkeypatch):
    """A bound that is too loose would send every row to the slow path
    without changing any result; count the rows each pass sends to the exact
    path, and the passes: one per (snapshot, point), none on the engine's
    master."""
    passes = []
    real_unsettled = geometry._unsettled_rows

    def counting_unsettled(sys, x, start, stop):
        rows = real_unsettled(sys, x, start, stop)
        passes.append((sys, np.array(x), start, stop, len(rows),
                       threading.current_thread()))
        return rows

    dots = [0]

    def counting_dot(u, v):
        dots[0] += 1
        return exact_dot(u, v)

    translate_dots = []

    def counting_translate(sys, v):
        before = dots[0]
        result = translate(sys, v)
        translate_dots.append(dots[0] - before)
        return result

    monkeypatch.setattr(geometry, "_unsettled_rows", counting_unsettled)
    monkeypatch.setattr(geometry, "exact_dot", counting_dot)
    monkeypatch.setattr(dynamics, "translate", counting_translate)
    for workers, record_trace in [(0, True), (0, False), (2, True)]:
        passes.clear()
        translate_dots.clear()
        config = SolverConfig(record_trace=record_trace)
        if workers:
            out = run_parallel(_model_source(200), config, EngineConfig(workers=workers))
        else:
            out = solve(_model_source(200), config)

        assert out.converged and out.iterations >= 3
        # one pass on the starting point, then one after each step
        assert len(passes) == max(1, workers) * (out.iterations + 1)
        if workers:
            assert threading.current_thread() not in {p[-1] for p in passes}
        for sys, x, start, stop, count, _ in passes:
            h = len(oracles.violated_slices(sys, x, start, stop))
            assert count <= h + 2, (workers, h, count)
        # translating computes no exact bound; a pass computes those it needs
        assert translate_dots == [0] * out.iterations


@pytest.mark.parametrize("workers,record_trace", [(0, True), (0, False), (2, True)])
def test_oracle_kernels_reproduce_a_translating_solve(monkeypatch, workers, record_trace):
    def run():
        config = SolverConfig(record_trace=record_trace, record_iterates=True)
        if workers:
            return run_parallel(_model_source(200), config, EngineConfig(workers=workers))
        return solve(_model_source(200), config)

    fast = run()
    # the loop's one row pass, for both engines
    monkeypatch.setattr(solver, "violated_slices", oracles.row_pass)
    monkeypatch.setattr(dynamics, "translate", oracles.translate)
    exact = run()

    assert fast.status is exact.status
    assert fast.iterations == exact.iterations > 0
    assert [p.tobytes() for p in fast.iterates] == [p.tobytes() for p in exact.iterates]
    if record_trace:
        fields = ("k", "h", "step_norm", "max_violation", "virtual_time")
        assert [[getattr(r, f) for f in fields] for r in fast.trace] == [
            [getattr(r, f) for f in fields] for r in exact.trace
        ]
