"""The filtered row pass against the unfiltered oracles in ``oracles.py``.

The filter may only decide which rows skip the exact path, so every result
must match the oracle bit for bit, at points on and a few ulps off the
hyperplanes, at x = 0, at subnormal and huge magnitudes, for rows whose
squared norm has underflowed, and on translated systems.  A solve makes one
pass per (snapshot, point).
"""

import collections
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    generate_model_problem,
    run_parallel,
    solve,
)
from modap.bsf_engine import partition_rows
from modap.dynamics import translate
from modap.geometry import Translated, eps_membership, max_relative_violation, violated_slices
from modap.summation import SMALL_BLOCK, column_sums, exact_dot

# row and point scales: 2^-530 puts a squared row norm in the subnormal
# range (like [1e-160]), 2^-1060 makes the coordinates themselves subnormal,
# 2^450 and 2^500 push products towards the top of the range and past it
ROW_SCALES = [-530, -200, 0, 0, 0, 200, 450]
POINT_SCALES = [-1060, -500, 0, 0, 0, 300, 500]
# a translated system may also move by, and be evaluated at, up to about
# 1e308, so that x - v, the filter's estimate or its bound overflow
HUGE_SCALES = [1000, 1023]


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
    that many rows sit on or next to their hyperplane at x.  A translated
    system and its point may lie near the top of the float64 range, and v
    may be nearly parallel to a row's hyperplane.
    """
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    a = np.array([_scaled(draw, ROW_SCALES, n) for _ in range(m)])
    translated = draw(st.booleans())
    scales = POINT_SCALES + HUGE_SCALES if translated else POINT_SCALES
    x = np.zeros(n) if draw(st.booleans()) else _scaled(draw, scales, n)
    motion = draw(st.sampled_from(["free", "tangent", "tangent", "tangent", "opposite"]))
    v = None
    if translated and motion == "opposite" and x.any():
        # x - v = 2x overflows in the largest entry of x; rows scaled down
        # keep more products <a_i, x> finite
        x = np.ldexp(x, 1024 - math.frexp(float(np.abs(x).max()))[1])
        v = -x
        a = np.ldexp(a, -64)
    elif translated:
        v = _scaled(draw, scales, n)
    tangent = translated and motion == "tangent"
    if tangent:
        # v nearly parallel to row 0's hyperplane: <a_0, v> cancels, so only
        # the ||v|| term of the bound covers the rounding of x - v and of
        # the product, which a violated row 0 then needs; v / 3 makes that
        # rounding rarely exact
        with np.errstate(all="ignore"):
            v = v / 3
            v = v - (a[0] @ v / (a[0] @ a[0])) * a[0]
    assume(np.isfinite(x).all() and (v is None or np.isfinite(v).all()))
    b = np.empty(m)
    try:
        for i in range(m):
            violated = tangent and i == 0
            kind = "near" if violated else draw(
                st.sampled_from(["near", "near", "zero", "random"]))
            if kind == "zero":
                b[i] = 0.0
            elif kind == "random":
                b[i] = draw(st.floats(-5, 5)) * 2.0 ** draw(st.sampled_from(POINT_SCALES))
            else:
                try:
                    target = exact_dot(a[i], x)
                    if v is not None:
                        target -= exact_dot(a[i], v)
                except (OverflowError, ValueError):  # the pass and the oracle raise
                    target = 0.0
                b[i] = _near(target, draw(st.integers(-3, -1 if violated else 3)))
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
    assert oracles.bounds(fast).tobytes() == exact.b.tobytes()


# the cases' huge magnitudes overflow on purpose
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(filter_cases())
def test_a_row_the_filter_settles_has_no_positive_residual(case):
    # on and a few ulps off the hyperplanes, and with estimates and bounds
    # that overflow: every row the fused test settles evaluates exactly,
    # without overflow, to a residual of at most 0
    fast, exact, x = case
    with np.errstate(all="ignore"):
        unsettled = geometry._unsettled_rows(*_parts(fast), x, 0, fast.m).tolist()
    for i in sorted(set(range(fast.m)) - set(unsettled)):
        assert oracles.residual(exact, i, x) <= 0.0


# rows stay where their squared norms neither overflow nor underflow to 0;
# points, shifts and bounds reach subnormals (2^-1074) and 2^958, where
# the products overflow, and the bounds also sit near the top of the range
SETTLE_ROW_SCALES = [-536, -530, -200, 0, 0, 0, 200, 500]
SETTLE_POINT_SCALES = [-1074, -1060, -500, 0, 0, 0, 500, 958]
_HUGE_BOUND = 1.5e308


def _exact(value):
    """A float as a ``Fraction``; None when it is not finite."""
    return Fraction(value) if math.isfinite(value) else None


@st.composite
def settle_cases(draw):
    """Rows, bounds, a point (the origin in a quarter of cases) and a
    shift or None, for the settle test alone: each bound is 0, random,
    near the top of the range, or on or within a few ulps of row i's
    hyperplane at x, computed in ``Fraction``."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    a = np.array([_scaled(draw, SETTLE_ROW_SCALES, n) for _ in range(m)])
    x = np.zeros(n) if draw(st.integers(0, 3)) == 0 else _scaled(draw, SETTLE_POINT_SCALES, n)
    v = _scaled(draw, SETTLE_POINT_SCALES, n) if draw(st.booleans()) else None
    assume(np.isfinite(x).all() and (v is None or np.isfinite(v).all()))
    b = []
    for row in a:
        kind = draw(st.sampled_from(["near", "near", "near", "zero", "random", "huge"]))
        if kind == "zero":
            b.append(0.0)
        elif kind == "random":
            b.append(draw(st.floats(-5, 5)) * 2.0 ** draw(st.sampled_from(SETTLE_POINT_SCALES)))
        elif kind == "huge":
            b.append(draw(st.sampled_from([-1.0, 1.0])) * _HUGE_BOUND)
        else:
            y = x if v is None else x - v
            target = sum(Fraction(c) * Fraction(z) for c, z in zip(row.tolist(), y.tolist()))
            try:
                near = float(target)
            except OverflowError:
                near = 0.0
            b.append(_near(near, draw(st.integers(-2, 2))))
    b = np.array(b)
    assume(np.isfinite(b).all())
    return a, b, x, v


def _settle_outcome(a, b, x, v):
    """The system, the rows the settle test leaves unsettled, and every
    row's float64 estimate t_i."""
    try:
        sys = InequalitySystem(a, b)
    except ValueError:  # a row's squared norm leaves float64
        assume(False)
    with np.errstate(all="ignore"):
        unsettled = set(geometry._unsettled_rows(sys, v, x, 0, sys.m).tolist())
        estimates = sys._estimate(x if v is None else x - v, 0, sys.m) - sys.b
    return sys, unsettled, estimates


# the estimate at each example is +inf (an overflowing product), -inf (b
# near the top of the range, or x - v overflowing) and nan (products of
# both signs overflowing, summed as a segment: a matrix-vector product may
# fuse the second into an infinite first and give inf)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@example(([[2.0 ** 500]], [0.0], [2.0 ** 600], None))
@example(([[1.0]], [_HUGE_BOUND], [-_HUGE_BOUND], None))
@example(([[1.0, 1.0]], [0.0], [1.0, 1.0], [_HUGE_BOUND, _HUGE_BOUND]))
@example(([[2.0 ** 500, 2.0 ** 500, 0.0]], [0.0], [2.0 ** 600, -2.0 ** 600, 1.0], None))
@given(settle_cases())
def test_the_settle_test_settles_no_row_with_a_positive_residual(case):
    """A row the test settles has a finite estimate, finite products and a
    finite bound on the exact path, and an exact-path residual, summed in
    ``Fraction`` from the rounded products and bound, of at most 0; so
    has its residual in exact arithmetic."""
    a, b, x, v = (None if part is None else np.array(part, dtype=np.float64)
                  for part in case)
    sys, unsettled, estimates = _settle_outcome(a, b, x, v)
    for i in sorted(set(range(sys.m)) - unsettled):
        assert math.isfinite(estimates[i]), (i, estimates[i])
        row = a[i]
        with np.errstate(over="ignore"):
            products = [_exact(p) for p in (row * x).tolist()]
        assert None not in products
        exact = sum(Fraction(c) * Fraction(z) for c, z in zip(row.tolist(), x.tolist()))
        bound = _exact(float(b[i]))
        if v is not None:
            with np.errstate(over="ignore"):
                shift_products = row * v
            assert np.isfinite(shift_products).all()
            bound = _exact(float(b[i]) + math.fsum(shift_products.tolist()))
            assert bound is not None
            exact -= sum(Fraction(c) * Fraction(z) for c, z in zip(row.tolist(), v.tolist()))
        assert sum(products) - bound <= 0
        assert exact - Fraction(float(b[i])) <= 0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("a,b,x,v,estimate", [
    ([[2.0 ** 500]], [0.0], [-2.0 ** 600], None, -math.inf),
    ([[1.0]], [_HUGE_BOUND], [-_HUGE_BOUND], None, -math.inf),
    ([[1.0, 1.0]], [0.0], [-1.0, -1.0], [_HUGE_BOUND, _HUGE_BOUND], -math.inf),
    ([[2.0 ** 500]], [-1.0], [2.0 ** 600], None, math.inf),
    ([[2.0 ** 500, 2.0 ** 500, 0.0]], [0.0], [2.0 ** 600, -2.0 ** 600, 1.0], None, math.nan),
    ([[1.0]], [2.0 ** 961], [0.0], None, -2.0 ** 961),
], ids=["-inf product", "-inf minus b", "-inf x - v", "+inf", "nan", "huge"])
def test_a_non_finite_or_huge_estimate_stays_unsettled(a, b, x, v, estimate):
    _, unsettled, estimates = _settle_outcome(np.array(a), np.array(b), np.array(x),
                                              None if v is None else np.array(v))
    assert (math.isnan(estimates[0]) if math.isnan(estimate) else estimates[0] == estimate)
    assert unsettled == {0}


@pytest.mark.parametrize("translated,mixed", [
    pytest.param(False, False, id="False"),
    pytest.param(True, False, id="True"),
    pytest.param(False, True, id="mixed-False"),
    pytest.param(True, True, id="mixed-True"),
])
def test_wide_pass_equals_the_oracle(translated, mixed):
    # enough unsettled rows for the vectorised row sums; entries spread over
    # 2^80, so that the sums cancel and round, and every row on or an ulp
    # off its hyperplane at x; a mixed system's rows store 1 to n entries,
    # so that the pass sums them as segments
    rng = np.random.default_rng(6)
    n = 120
    a = rng.standard_normal((400, n)) * 2.0 ** rng.integers(-40, 40, (400, n))
    x = rng.standard_normal(n)
    v = rng.standard_normal(n) * 1e-3 if translated else np.zeros(n)
    if mixed:
        keep = rng.random((400, n)) < rng.random((400, 1))
        keep[np.arange(400), rng.integers(0, n, 400)] = True
        a[~keep] = 0.0
    b = np.array([exact_dot(row, x) - exact_dot(row, v) for row in a])
    b[::3] = np.nextafter(b[::3], -np.inf)
    base = InequalitySystem(a, b)
    fast, exact = (translate(base, v), oracles.translate(base, v)) if translated else (base, base)
    for point in (x, x * (1 + 2.0 ** -40), np.zeros(n)):
        sys, shift = _parts(fast)
        rows = geometry._unsettled_rows(sys, shift, point, 0, 400)
        assert (sys.indptr[rows + 1] - sys.indptr[rows]).sum() >= 4 * SMALL_BLOCK
        assert (sys._gather(rows)[2] is not None) == mixed
        assert _pass_bits(("ok", violated_slices(fast, point))) == _pass_bits(
            ("ok", oracles.row_pass(exact, point)))


def test_tiny_row_with_underflowed_norm():
    # ||a||^2 = 1e-320 is subnormal; the cached norm is off by about 1e-4
    # relative, so the filter must not trust it
    sys = InequalitySystem([[1e-160, 0.0]], [1e-160])
    for x in ([1.0, 5.0], [math.nextafter(1.0, 2.0), 0.0], [math.nextafter(1.0, 0.0), 0.0]):
        x = np.array(x)
        assert max_relative_violation(sys, x) == oracles.max_relative_violation(sys, x)
        assert _pass_bits(("ok", violated_slices(sys, x))) == _pass_bits(
            ("ok", oracles.row_pass(sys, x)))


@st.composite
def norm_vectors(draw):
    """Vectors for the norm bound: any floats, subnormals (whose squares
    underflow), entries near overflow, and Gaussian vectors scaled so that
    ``v @ v`` lies within a few ulps of 2^-900 or 2^900, on either side."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["floats", "subnormal", "huge", "edge"]))
    if kind == "floats":
        return np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                      min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "subnormal":
        v = rng.integers(-2 ** 20, 2 ** 20, n) * 5e-324
        v[rng.random(n) < 0.2] = 2.0 ** -600
        return v
    if kind == "huge":
        return rng.uniform(-1.0, 1.0, n) * 1.7976931348623157e308
    v = rng.standard_normal(n)
    edge = 2.0 ** draw(st.sampled_from([-900, 900]))
    return v * (math.sqrt(edge / float(v @ v)) * (1.0 + draw(st.integers(-8, 8)) * 2.0 ** -50))


@settings(max_examples=300, deadline=None)
@given(norm_vectors())
def test_norm_bound_is_an_upper_bound(v):
    with np.errstate(over="ignore"):
        bound = geometry._norm_bound(v)
    square = sum(Fraction(c) ** 2 for c in v.tolist())
    if bound < math.inf:
        assert Fraction(bound) ** 2 >= square
    assert (bound == 0.0) == (square == 0)
    norm = math.hypot(*v.tolist())
    if norm < math.inf:  # and not much looser than the norm
        assert bound <= norm * (1.0 + 2.0 ** -40) + 2.0 ** -1070


def test_norm_bound_falls_back_to_hypot_outside_its_range(monkeypatch):
    calls = []
    real = math.hypot

    def hypot(*values):
        calls.append(len(values))
        return real(*values)

    monkeypatch.setattr(geometry.math, "hypot", hypot)
    # v @ v = 2^900 and 2^-900 are inside, 2^902 and 2^-902 outside; a
    # subnormal and an overflowing v @ v fall back too, and the zero vector
    # has the bound 0 without a call
    for v, fallback in [(np.full(4, 2.0 ** 449), False), (np.full(4, 2.0 ** 450), True),
                        (np.full(4, 2.0 ** -451), False), (np.full(4, 2.0 ** -452), True),
                        (np.zeros(3), False), (np.array([0.0, -0.0]), False),
                        (np.array([5e-324]), True), (np.array([1e300, -1e300]), True)]:
        calls.clear()
        with np.errstate(over="ignore"):
            bound = geometry._norm_bound(v)
        assert calls == ([v.size] if fallback else [])
        assert Fraction(bound) ** 2 >= sum(Fraction(c) ** 2 for c in v.tolist())
        assert (bound == 0.0) == (not v.any())


def test_a_solve_from_the_origin_calls_no_hypot(monkeypatch):
    # the first pass bounds ||x|| of x = 0 in each of the K = 2 blocks, and
    # every later one bounds a non-zero x and v in the normal range
    calls = []
    real = math.hypot

    def hypot(*values):
        calls.append(len(values))
        return real(*values)

    monkeypatch.setattr(geometry.math, "hypot", hypot)
    out = run_parallel(_model_source(200), SolverConfig(), EngineConfig(workers=2))
    assert out.converged and out.iterations >= 3
    assert calls == []


def test_an_overflowing_translated_row_names_its_sum():
    # the products 2^1023 are finite and their sums overflow; every row's
    # estimate is infinite, so the filter leaves it to the exact path
    # the internal pass leaves silencing floating-point warnings to its caller
    with np.errstate(all="ignore"):
        big = 2.0 ** 510
        both = translate(InequalitySystem([[big, big]], [0.0]), np.full(2, 2.0 ** 513))
        with pytest.raises(ValueError, match="^row 0: its residual overflows"):
            violated_slices(both, np.full(2, 2.0 ** 513))
        with pytest.raises(ValueError, match="^row 0: its translated bound overflows"):
            violated_slices(both, np.zeros(2))
        # row 0's bound and row 1's residual overflow: the residuals go first
        two = translate(InequalitySystem([[big, big], [big, -big]], [0.0, 0.0]),
                        np.full(2, 2.0 ** 513))
        with pytest.raises(ValueError, match="^row 1: its residual overflows"):
            violated_slices(two, np.array([2.0 ** 513, -2.0 ** 513]))
        # the sum is finite and the bound's last addition overflows
        last = translate(InequalitySystem([[1.0, 0.0]], [1.5e308]), np.array([1e308, 0.0]))
        with pytest.raises(ValueError, match="^row 0: its translated bound overflows"):
            violated_slices(last, np.zeros(2))


def test_a_translated_pass_takes_one_view_and_one_sum(monkeypatch):
    sums = []
    real = geometry.row_sums

    def row_sums(values, starts=None):
        sums.append((values.shape, None if starts is None else starts.tolist()))
        return real(values, starts)

    monkeypatch.setattr(geometry, "row_sums", row_sums)
    src = _model_source(10)
    src.advance(0.03)
    snap = src.snapshot()
    x = np.full(10, 0.05)  # only the row -sum(x) <= -100 is unsettled
    rows = geometry._unsettled_rows(snap.system, snap.shift, x, 0, snap.m)
    assert rows.tolist() == [21]
    values, columns, starts = snap.system._gather(rows)
    assert values.shape == (1, 10) and columns is None and starts is None
    assert np.shares_memory(values, snap.system.data)
    values, columns, starts = snap.system._gather(np.array([3]))  # one stored entry
    assert (np.shares_memory(values, snap.system.data)
            and np.shares_memory(columns, snap.system.indices))
    # residuals and translated bounds in one sum: one row as a (2, w)
    # block, then a full row and a one-entry row as four segments; the
    # oracle translates the base itself, and the pass leaves the snapshot
    # as it was
    for x, call in [(x, ((2, 10), None)),
                    (np.where(np.arange(10) == 3, -1.0, x), ((22,), [0, 1, 11, 12]))]:
        want = _pass_bits(("ok", oracles.row_pass(
            oracles.translate(src.base, src.cumulative_displacement), x)))
        sums.clear()
        assert _pass_bits(("ok", violated_slices(snap, x))) == want
        assert sums == [call]
        assert snap.system is src.base
        assert snap.shift.tobytes() == src.cumulative_displacement.tobytes()


_MAX_FLOAT = float(np.finfo(np.float64).max)


@st.composite
def lone_row_cases(draw):
    """A system with one row k that the settle test leaves to the exact
    path, translated by v or not, and a point x; every other row is settled
    by a margin.  Row k stores all of its n entries, some of them, or one,
    as the model problem's box rows do.  Its bound puts x on or a few ulps
    to either side of its hyperplane, or lies near the top of the float64
    range, where, with a huge v, ``b_k + <a_k, v>`` may overflow."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    k = draw(st.integers(0, m - 1))
    a = np.array([_scaled(draw, ROW_SCALES, n) for _ in range(m)])
    a[~a.any(axis=1), 0] = 1.0
    storage = draw(st.sampled_from(["full", "some", "one"]))
    if storage == "full":
        a[k, a[k] == 0.0] = 2.0 ** draw(st.sampled_from(ROW_SCALES))
    else:
        keep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if storage == "one" or not keep.any():
            keep = np.arange(n) == draw(st.integers(0, n - 1))
        a[k, ~keep] = 0.0
        a[k, keep & (a[k] == 0.0)] = 1.0
    x = np.zeros(n) if draw(st.booleans()) else _scaled(draw, POINT_SCALES, n)
    v = None
    bound = draw(st.sampled_from(["near", "near", "huge", "overflow"]))
    if bound == "overflow":  # <a_k, v> >= 2^975 when a_k's entries reach 1
        v = a[k] / np.abs(a[k]).max() * 2.0 ** 975
    elif draw(st.booleans()):
        v = _scaled(draw, POINT_SCALES, n)
    y = x if v is None else x - v
    s = math.hypot(*x.tolist()) + (0.0 if v is None else math.hypot(*v.tolist()))
    b = np.empty(m)
    with np.errstate(all="ignore"):
        for j, row in enumerate(a):
            if j != k:  # settled: t_j near -2^-44 ||a_j|| S, far below -T_j
                margin = 2.0 ** -44 * math.hypot(*row.tolist()) * s
                assume(margin < 2.0 ** 955)
                try:
                    b[j] = exact_dot(row, y) + margin + 1.0
                except (OverflowError, ValueError):
                    assume(False)
            elif bound == "overflow":
                b[j] = draw(st.sampled_from([_HUGE_BOUND, _MAX_FLOAT]))
            elif bound == "huge":
                b[j] = draw(st.sampled_from([-1.0, 1.0])) * draw(
                    st.sampled_from([_HUGE_BOUND, _MAX_FLOAT]))
            else:
                try:
                    target = exact_dot(row, x) - (0.0 if v is None else exact_dot(row, v))
                except (OverflowError, ValueError):
                    target = 0.0
                b[j] = _near(target, draw(st.integers(-3, 3)))
    assume(np.isfinite(b).all())
    try:
        base = InequalitySystem(a, b)
    except ValueError:  # a row's squared norm leaves float64
        assume(False)
    with np.errstate(all="ignore"):
        assume(geometry._unsettled_rows(base, v, x, 0, m).tolist() == [k])
    return base, v, x, k


def _lone_want(base, v, x, k, start, stop):
    """:func:`oracles.row_pass`'s slices and maximum for the case, or, where
    the oracle overflows, the message the pass raises: its residual's when
    the products with x do not sum in float64, else its translated
    bound's."""
    try:
        exact = base if v is None else oracles.translate(base, v)
        slices, worst = oracles.row_pass(exact, x, start, stop)
    except (OverflowError, ValueError):
        with np.errstate(over="ignore"):
            products = (base.a[k] * x).tolist()
        try:
            math.fsum(products)
            what = "its translated bound"
        except (OverflowError, ValueError):
            what = "its residual"
        return ("raised", f"row {k}: {what} overflows float64")
    return ("ok", slices.shape, slices.tobytes(), np.float64(worst).tobytes())


def _lone_got(snap, x, start, stop):
    try:
        with np.errstate(all="ignore"):
            slices, worst = violated_slices(snap, x, start, stop)
    except ValueError as exc:
        return ("raised", str(exc))
    return ("ok", slices.shape, slices.tobytes(), np.float64(worst).tobytes())


# the cases' huge bounds and shifts overflow on purpose
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(lone_row_cases(), st.data())
def test_a_lone_exact_row_equals_the_oracle_bit_for_bit(case, data):
    """A pass that leaves one row to the exact path finishes it in Python
    floats; its slice, its maximum and its errors are the oracle's, over
    any range that holds the row."""
    base, v, x, k = case
    snap = base if v is None else translate(base, v)
    start = data.draw(st.integers(0, k))
    stop = data.draw(st.integers(k + 1, base.m))
    assert _lone_got(snap, x, start, stop) == _lone_want(base, v, x, k, start, stop)


@pytest.mark.parametrize("translated", [False, True])
def test_two_exact_rows_take_the_many_row_form(monkeypatch, translated):
    # two rows an ulp either side of their hyperplanes at x, one violated
    # and one not, next to a settled row: the pass takes the numpy form,
    # and each row alone the lone-row form, with the oracle's bits
    lone = []
    real = geometry._lone_row
    monkeypatch.setattr(geometry, "_lone_row", lambda *args: lone.append(args[3]) or real(*args))
    a = np.array([[3.0, -1.0, 0.5], [0.0, 2.0, 0.0], [1.0, 1.0, 1.0]])
    x = np.array([0.3, 0.7, -0.2])
    v = np.array([0.1, -0.4, 0.25]) if translated else np.zeros(3)
    b = np.array([exact_dot(row, x) - exact_dot(row, v) for row in a])
    b[0], b[1], b[2] = math.nextafter(b[0], -1.0), math.nextafter(b[1], 9.0), 1e3
    base = InequalitySystem(a, b)
    snap = translate(base, v) if translated else base
    exact = oracles.translate(base, v) if translated else base
    for start, stop, rows in [(0, 3, [0, 1]), (0, 1, [0]), (1, 3, [1])]:
        lone.clear()
        assert _pass_bits(("ok", violated_slices(snap, x, start, stop))) == _pass_bits(
            ("ok", oracles.row_pass(exact, x, start, stop)))
        assert [r.tolist() for r in lone] == ([] if len(rows) > 1 else [rows])


@st.composite
def stored_cases(draw):
    """A dense matrix with explicit ``0.0`` and ``-0.0`` entries, fully
    stored rows mixed with sparse ones, bounds that put x on, or an ulp to
    either side of, each row's hyperplane, x, and a displacement or None."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal((m, n)) * 2.0 ** rng.integers(-30, 30, (m, n))
    zeros = rng.random((m, n)) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    zeros[rng.random(m) < 0.3] = False  # fully stored rows
    a[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    empty = np.flatnonzero(~a.any(axis=1))
    a[empty, rng.integers(0, n, empty.size)] = rng.choice([1.0, -3.0], size=empty.size)
    x = rng.standard_normal(n) * 4.0
    v = rng.standard_normal(n) if draw(st.booleans()) else None
    b = [_near(exact_dot(row, x) - (0.0 if v is None else exact_dot(row, v)), ulps)
         for row, ulps in zip(a, rng.integers(-1, 2, m).tolist())]
    return a, np.array(b), x, v


@settings(max_examples=200, deadline=None)
@given(stored_cases(), st.data())
def test_stored_rows_pass_equals_the_dense_oracle(case, data):
    """The pass over the stored entries against the pass over the dense
    input.  h and the maximum match it bit for bit; the slices match it once
    the ``-0.0`` entries, which are not stored, read ``+0.0``, and their
    column sums match it as given."""
    a, b, x, v = case
    base = InequalitySystem(a, b)
    assert not (base.data == 0.0).any()
    sys = base if v is None else translate(base, v)
    cut = data.draw(st.integers(0, base.m))
    for point in (x, np.zeros(base.n)):
        slices, worst = violated_slices(sys, point)
        raw = oracles.dense_row_pass(a, b, point, v)
        stored = oracles.dense_row_pass(a + 0.0, b, point, v)
        assert slices.shape == raw[0].shape
        assert np.float64(worst).tobytes() == np.float64(raw[1]).tobytes()
        assert slices.tobytes() == stored[0].tobytes()
        assert column_sums(slices).tobytes() == column_sums(raw[0]).tobytes()
        parts = [violated_slices(sys, point, 0, cut), violated_slices(sys, point, cut, base.m)]
        assert np.concatenate([p[0] for p in parts]).tobytes() == slices.tobytes()
        assert max(p[1] for p in parts) == worst


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gather_reads_a_block_or_segments(data):
    """``_gather`` reads a row set as one block exactly when every row from
    its first to its last is fully stored, and as views exactly when its
    rows are consecutive; either form, spread out by ``_scattered``, is the
    dense input's rows with ``+0.0`` for every zero."""
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal((m, n))
    zeros = rng.random((m, n)) < data.draw(st.sampled_from([0.3, 0.7, 1.0]))
    zeros[rng.random(m) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))] = False
    a[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    empty = np.flatnonzero(~a.any(axis=1))
    a[empty, rng.integers(0, n, empty.size)] = 1.0
    sys = InequalitySystem(a, np.ones(m))
    if data.draw(st.booleans()):
        lo = data.draw(st.integers(0, m))
        rows = range(lo, data.draw(st.integers(lo, m)))
    else:
        rows = np.array(sorted(data.draw(st.sets(st.integers(0, m - 1)))), dtype=np.intp)
    values, columns, starts = sys._gather(rows)
    spread = geometry._scattered(values, columns, starts, n)
    assert spread.tobytes() == (a[rows] + 0.0).tobytes()
    if not len(rows):
        assert values.shape == (0, n) and starts is None
        return
    full = (a[rows[0]:rows[-1] + 1] != 0.0).all()
    consecutive = rows[-1] - rows[0] + 1 == len(rows)
    assert (starts is None) == full and (columns is None) == full
    assert np.shares_memory(values, sys.data) == consecutive
    if full:
        assert values.shape == (len(rows), n)
    else:
        assert np.shares_memory(columns, sys.indices) == consecutive


def _one_reduceat(sys, y, start, stop):
    """``A[start:stop] y`` as the pass took it before layouts: one
    ``np.add.reduceat`` over the gathered segments, or the block's
    matrix-vector product."""
    values, columns, starts = sys._gather(range(start, stop))
    if starts is None:
        return values @ y
    return np.add.reduceat(values * y[columns], starts)


def _ranged_system(counts, n, seed):
    """A system whose row i stores ``counts[i]`` entries spread over 2^80."""
    rng = np.random.default_rng(seed)
    a = np.zeros((len(counts), n))
    for i, count in enumerate(counts):
        cols = rng.choice(n, count, replace=False)
        a[i, cols] = rng.standard_normal(count) * 2.0 ** rng.integers(-40, 40, count)
    return InequalitySystem(a, np.ones(len(counts)))


def _spread_point(n, seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 2.0 ** rng.integers(-40, 40, n)


@pytest.mark.parametrize("n", [10, 1000])
@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_model_partitions_estimate_as_one_reduceat(n, workers):
    # the model problem's rows: 2n one-entry rows, then two full rows, so
    # its ranges hold one-entry rows only, or end with the wide rows on the
    # last stored entry
    sys = generate_model_problem(ModelProblemSpec(n=n))
    y = _spread_point(n)
    for part in partition_rows(sys.m, workers):
        got = sys._estimate(y, part.start, part.stop)
        assert got.tobytes() == _one_reduceat(sys, y, part.start, part.stop).tobytes()
    assert len(sys._layouts) == workers


@pytest.mark.parametrize("counts", [
    [1, 1, 1, 1, 1, 1],  # one-entry rows only
    [2, 3, 5, 2, 4, 3],  # wide rows only
    [1, 1, 5, 1, 1, 1, 1, 1, 3],  # wide rows apart
    [7, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2],  # adjacent wide rows, first and last
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 8],  # a wide row on the last stored entry
], ids=["one-entry", "wide", "apart", "adjacent", "last"])
def test_every_range_estimates_as_one_reduceat(counts):
    sys = _ranged_system(counts, 8, seed=len(counts))
    y = _spread_point(8)
    for start in range(sys.m + 1):
        for stop in range(start, sys.m + 1):
            got = sys._estimate(y, start, stop)
            assert got.tobytes() == _one_reduceat(sys, y, start, stop).tobytes(), (start, stop)
    # the whole range sums exactly its wide rows' segments, whatever their share
    wide = geometry._range_layout(sys.indptr, sys.n).wide
    expected = np.flatnonzero(np.array(counts) > 1)
    assert wide is None if not expected.size else wide.tolist() == expected.tolist()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ranges_cut_anywhere_estimate_as_one_reduceat(data):
    n = data.draw(st.integers(1, 40))
    counts = data.draw(st.lists(st.sampled_from([1, 1, 1, 2, 3, n]).map(lambda c: min(c, n)),
                                min_size=1, max_size=30))
    sys = _ranged_system(counts, n, data.draw(st.integers(0, 2 ** 32 - 1)))
    y = _spread_point(n, data.draw(st.integers(0, 2 ** 32 - 1)))
    start = data.draw(st.integers(0, sys.m))
    stop = data.draw(st.integers(start, sys.m))
    for _ in range(2):  # building the layout, then reading it
        got = sys._estimate(y, start, stop)
        assert got.tobytes() == _one_reduceat(sys, y, start, stop).tobytes()


def test_each_range_layout_is_built_once_per_system(monkeypatch):
    built = []
    real = geometry._range_layout

    def range_layout(bounds, n):
        built.append((int(bounds[0]), int(bounds[-1])))  # the range's entries
        return real(bounds, n)

    monkeypatch.setattr(geometry, "_range_layout", range_layout)
    src = _model_source(50)
    for _ in range(2):  # two K = 2 solves and a sequential one on one system
        run_parallel(DynamicSystemSource(src.base, src.spec), SolverConfig(),
                     EngineConfig(workers=2))
    solve(DynamicSystemSource(src.base, src.spec), SolverConfig())
    assert built == [(0, 51), (51, 200), (0, 200)]


@pytest.mark.parametrize("workers", [17, 32, 102])
def test_every_range_of_two_partitions_stays_memoised(monkeypatch, workers):
    # a K-range solve, a second partition and the sequential pass's whole
    # range all stay memoised: each layout is built once
    built = []
    real = geometry._range_layout

    def range_layout(bounds, n):
        built.append((int(bounds[0]), int(bounds[-1])))
        return real(bounds, n)

    monkeypatch.setattr(geometry, "_range_layout", range_layout)
    src = _model_source(50)
    for k in (workers, 2, workers):
        run_parallel(DynamicSystemSource(src.base, src.spec), SolverConfig(),
                     EngineConfig(workers=k))
    solve(DynamicSystemSource(src.base, src.spec), SolverConfig())
    assert len(built) == len(set(built)) == workers + 2 + 1
    assert len(src.base._layouts) == workers + 2 + 1


def test_a_k_sweep_keeps_every_layout(monkeypatch):
    # two sweeps of the engine over K and a sequential solve on one system:
    # every distinct row range is built once and kept, and every K solves
    # to the sequential bits
    built = collections.Counter()
    real = geometry._range_layout

    def range_layout(bounds, n):
        built[int(bounds[0]), int(bounds[-1])] += 1
        return real(bounds, n)

    monkeypatch.setattr(geometry, "_range_layout", range_layout)
    src = _model_source(50)
    sys = src.base
    config = SolverConfig(record_iterates=True)
    want = [p.tobytes() for p in solve(DynamicSystemSource(sys, src.spec), config).iterates]
    sweep = (1, 2, 4, 8, 16, 32, 64, 102)
    for _ in range(2):
        for k in sweep:
            out = run_parallel(DynamicSystemSource(sys, src.spec), config,
                               EngineConfig(workers=k))
            assert [p.tobytes() for p in out.iterates] == want, k
    # K = 1 shares the whole range with the sequential pass, and K = 64's
    # 26 one-row ranges are K = 102's
    ranges = {(r.start, r.stop) for k in sweep for r in partition_rows(sys.m, k)}
    assert len(ranges) == sum(sweep) - 26 == 203
    assert set(sys._layouts) == ranges
    assert len(built) == 203 and set(built.values()) == {1}


@pytest.mark.parametrize("translated", [False, True])
def test_mixed_widths_equal_the_dense_oracle(translated):
    # rows of many entry counts, so the exact path pads several width
    # classes, with -0.0 entries and every row on or an ulp off its
    # hyperplane, so that the vectorised row sums decide most of them
    rng = np.random.default_rng(9)
    n, m = 120, 400
    a = np.where(rng.random((m, n)) < 0.5, 0.0, -0.0)
    for i, count in enumerate(rng.choice([1, 2, 3, 7, 30, 64, 65, 120], m).tolist()):
        cols = rng.choice(n, count, replace=False)
        a[i, cols] = rng.standard_normal(count) * 2.0 ** rng.integers(-40, 40, count)
    x = rng.standard_normal(n)
    v = rng.standard_normal(n) * 1e-3 if translated else None
    b = np.array([_near(exact_dot(row, x) - (0.0 if v is None else exact_dot(row, v)), k)
                  for row, k in zip(a, rng.integers(-1, 2, m).tolist())])
    base = InequalitySystem(a, b)
    sys = base if v is None else translate(base, v)
    for point in (x, x * (1 + 2.0 ** -40), np.zeros(n)):
        slices, worst = violated_slices(sys, point)
        raw = oracles.dense_row_pass(a, b, point, v)
        assert slices.shape == raw[0].shape and worst == raw[1]
        assert slices.tobytes() == oracles.dense_row_pass(a + 0.0, b, point, v)[0].tobytes()
    assert len(geometry._unsettled_rows(base, v, x, 0, m)) * n >= 4 * SMALL_BLOCK


@pytest.mark.parametrize("translated", [False, True])
def test_full_row_view_and_gather_path_agree(translated):
    """A fully stored system is read through its 2-D view; one sparse row
    appended sends every row through the gather path.  The shared rows give
    the same bits either way."""
    rng = np.random.default_rng(10)
    n, m = 60, 300
    a = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    v = rng.standard_normal(n) * 1e-3 if translated else np.zeros(n)
    b = np.array([exact_dot(row, x) - exact_dot(row, v) for row in a])
    b[::3] = np.nextafter(b[::3], -np.inf)
    sparse_row = np.zeros(n)
    sparse_row[[3, 17]] = [1.0, -2.0]
    full = InequalitySystem(a, b)
    mixed = InequalitySystem(np.vstack([a, sparse_row]), np.append(b, 1e300))
    assert full._gather(range(m))[2] is None and mixed._gather(range(m + 1))[2] is not None
    if translated:
        full, mixed = translate(full, v), translate(mixed, v)
    for point in (x, x * (1 + 2.0 ** -40), np.zeros(n)):
        assert len(geometry._unsettled_rows(*_parts(full), point, 0, m)) * n >= 4 * SMALL_BLOCK
        assert _pass_bits(("ok", violated_slices(full, point))) == _pass_bits(
            ("ok", violated_slices(mixed, point)))
    assert oracles.bounds(full).tobytes() == oracles.bounds(mixed)[:m].tobytes()


def _parts(snap):
    """A snapshot's base system and shift, None when it is not translated."""
    return (snap.system, snap.shift) if isinstance(snap, Translated) else (snap, None)


def _model_source(n):
    return DynamicSystemSource(
        generate_model_problem(ModelProblemSpec(n=n)),
        DynamicsSpec(mode="translation", rate=1.0),
    )


class _CountingEntries(np.ndarray):
    """Stands in for ``sys.data`` and counts, per thread, the numpy calls that
    read it and how many stored entries each read; slices and gathers of it
    count too, while the results of ufuncs are plain arrays."""

    calls = collections.Counter()  # (thread id, numpy name, entries read) -> calls
    lock = threading.Lock()

    def _count(self, name):
        with self.lock:
            self.calls[threading.get_ident(), name, self.size] += 1

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self._count(ufunc.__name__)
        plain = [i.view(np.ndarray) if isinstance(i, _CountingEntries) else i
                 for i in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, _CountingEntries)
                                  else o for o in kwargs["out"])
        return getattr(ufunc, method)(*plain, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        self._count(func.__name__)
        return super().__array_function__(func, types, args, kwargs)

    @classmethod
    def on_thread(cls, thread_id):
        with cls.lock:
            return collections.Counter({(name, size): c
                                        for (t, name, size), c in cls.calls.items()
                                        if t == thread_id})


def _counting_model_source(n):
    src = _model_source(n)
    src.base.data = src.base.data.view(_CountingEntries)
    return src


def test_each_pass_evaluates_few_rows_exactly(monkeypatch):
    """A bound that is too loose would send every row to the slow path
    without changing any result; count the rows each pass sends to the exact
    path, and the passes: one per (snapshot, point), all on the caller's
    thread, the engine's too.  Each pass makes exactly one product over the
    stored entries of its rows, and otherwise reads only those of its exact
    rows; moving the system reads them not at all."""
    passes = []
    real_unsettled = geometry._unsettled_rows
    real_pass = solver.violated_slices
    real_advance = DynamicSystemSource.advance
    exact_rows = threading.local()

    def counting_unsettled(sys, shift, x, start, stop, point):
        rows = real_unsettled(sys, shift, x, start, stop, point)
        passes.append((sys, shift, np.array(x), start, stop, len(rows),
                       threading.current_thread()))
        exact_rows.rows = rows + start
        return rows

    pass_reads = []

    def counting_pass(snap, x, start, stop, point):
        me = threading.get_ident()
        before = _CountingEntries.on_thread(me)
        result = real_pass(snap, x, start, stop, point)
        sys, shift = _parts(snap)
        stop = sys.m if stop is None else stop
        rows = exact_rows.rows
        # a translated snapshot's exact path also takes its rows' bounds,
        # and the slices of fully stored rows multiply their stored entries
        products = (1 if shift is None else 2) + 1
        pass_reads.append((sys.indptr[stop] - sys.indptr[start],
                           products * int((sys.indptr[rows + 1] - sys.indptr[rows]).sum()),
                           _CountingEntries.on_thread(me) - before))
        return result

    advance_calls = []

    def counting_advance(src, elapsed):
        me = threading.get_ident()
        before = _CountingEntries.on_thread(me)
        real_advance(src, elapsed)
        advance_calls.append(_CountingEntries.on_thread(me) - before)

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
    monkeypatch.setattr(solver, "violated_slices", counting_pass)
    monkeypatch.setattr(DynamicSystemSource, "advance", counting_advance)
    for workers, record_trace in [(0, True), (0, False), (2, True)]:
        passes.clear()
        translate_dots.clear()
        pass_reads.clear()
        advance_calls.clear()
        _CountingEntries.calls.clear()
        config = SolverConfig(record_trace=record_trace)
        if workers:
            out = run_parallel(_counting_model_source(200), config,
                               EngineConfig(workers=workers))
        else:
            out = solve(_counting_model_source(200), config)
        reads_in_solve = _CountingEntries.calls.copy()  # the oracles below read too

        assert out.converged and out.iterations >= 3
        # one pass on the starting point, then one after each step
        assert len(passes) == max(1, workers) * (out.iterations + 1)
        # every pass, and every read of the stored entries, on the caller's thread
        assert {p[-1] for p in passes} == {threading.current_thread()}
        assert {t for t, _, _ in reads_in_solve} == {threading.get_ident()}
        for sys, shift, x, start, stop, count, _ in passes:
            snap = sys if shift is None else oracles.translate(sys, shift)
            h = len(oracles.violated_slices(snap, x, start, stop))
            assert count <= h + 2, (workers, h, count)
        # translating computes no exact bound; a pass computes those it needs
        assert translate_dots == [0] * out.iterations
        # one product over the stored entries of the pass's rows; whatever
        # else the pass reads belongs to its exact rows
        assert len(pass_reads) == len(passes)
        for stored, exact, reads in pass_reads:
            assert reads[("multiply", stored)] == 1, (stored, reads)
            rest = reads - collections.Counter({("multiply", stored): 1})
            assert sum(size * c for (_, size), c in rest.items()) <= exact, (exact, reads)
        # nothing outside the passes reads the stored entries
        assert sum(reads_in_solve.values()) == sum(
            sum(reads.values()) for _, _, reads in pass_reads)
        assert advance_calls == [collections.Counter()] * out.iterations


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
