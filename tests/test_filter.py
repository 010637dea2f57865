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
    generate_model_problem,
    run_parallel,
    solve,
)
from modap.dynamics import translate
from modap.geometry import eps_membership, max_relative_violation, violated_slices
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
        unsettled = geometry._unsettled_rows(fast, x, 0, fast.m).tolist()
    for i in sorted(set(range(fast.m)) - set(unsettled)):
        assert oracles.residual(exact, i, x) <= 0.0


# estimates: any float; bounds: what the filter builds, a non-negative float,
# an infinity or nan
_ESTIMATES = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, -5e-324, 2.0 ** 960,
                                                     -2.0 ** 960, math.inf, -math.inf]))
_BOUNDS = st.one_of(st.floats(min_value=0.0), st.sampled_from([0.0, 5e-324, 2.0 ** 960,
                                                               math.nextafter(2.0 ** 960, 0.0),
                                                               math.inf, math.nan]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_ESTIMATES, _BOUNDS), min_size=1, max_size=40),
       st.sampled_from([0, 1, -1]))
def test_fused_settle_test_is_t_at_most_minus_e(pairs, nudge):
    # fl(t + e) <= 0 and e < 2^960, the same as t <= -e and e < 2^960; t
    # moved by an ulp against -e, so that the sum lands on, just above or
    # just below 0
    t = np.array([math.nextafter(-e, math.copysign(math.inf, nudge)) if nudge and
                  math.isfinite(e) else tt for tt, e in pairs])
    e = np.array([e for _, e in pairs])
    want = [ti <= -ei and ei < geometry._FILTER_LIMIT for ti, ei in zip(t.tolist(), e.tolist())]
    with np.errstate(all="ignore"):
        got = geometry._settled(t, e.copy())
    assert got.tolist() == want
    # a nan estimate, a +inf one, and any bound that is not finite stay unsettled
    assert not (got & (np.isnan(t) | (t == math.inf) | ~np.isfinite(e))).any()


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
        rows = geometry._unsettled_rows(fast, point, 0, 400)
        assert (fast.indptr[rows + 1] - fast.indptr[rows]).sum() >= 4 * SMALL_BLOCK
        assert (fast._gather(rows)[2] is not None) == mixed
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
    # zero, a subnormal and an overflowing v @ v fall back too
    for v, fallback in [(np.full(4, 2.0 ** 449), False), (np.full(4, 2.0 ** 450), True),
                        (np.full(4, 2.0 ** -451), False), (np.full(4, 2.0 ** -452), True),
                        (np.zeros(3), True), (np.array([5e-324]), True),
                        (np.array([1e300, -1e300]), True)]:
        calls.clear()
        with np.errstate(over="ignore"):
            bound = geometry._norm_bound(v)
        assert calls == ([v.size] if fallback else [])
        assert Fraction(bound) ** 2 >= sum(Fraction(c) ** 2 for c in v.tolist())


def test_an_overflowing_translated_row_names_its_sum():
    # the products 2^1023 are finite and their sums overflow; every row's
    # estimate is infinite, so the filter leaves it to the exact path
    big = 2.0 ** 510
    both = translate(InequalitySystem([[big, big]], [0.0]), np.full(2, 2.0 ** 513))
    with pytest.raises(OverflowError, match="^row 0: its residual overflows"):
        violated_slices(both, np.full(2, 2.0 ** 513))
    with pytest.raises(OverflowError, match="^row 0: its translated bound overflows"):
        violated_slices(both, np.zeros(2))
    # row 0's bound and row 1's residual overflow: the residuals go first
    two = translate(InequalitySystem([[big, big], [big, -big]], [0.0, 0.0]),
                    np.full(2, 2.0 ** 513))
    with pytest.raises(OverflowError, match="^row 1: its residual overflows"):
        violated_slices(two, np.array([2.0 ** 513, -2.0 ** 513]))
    # the sum is finite and the bound's last addition overflows
    last = translate(InequalitySystem([[1.0, 0.0]], [1.5e308]), np.array([1e308, 0.0]))
    with pytest.raises(OverflowError, match="^row 0: its translated bound overflows"):
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
    rows = geometry._unsettled_rows(snap, x, 0, snap.m)
    assert rows.tolist() == [21]
    values, columns, starts = snap._gather(rows)
    assert values.shape == (1, 10) and columns is None and starts is None
    assert np.shares_memory(values, snap.data)
    values, columns, starts = snap._gather(np.array([3]))  # one stored entry
    assert np.shares_memory(values, snap.data) and np.shares_memory(columns, snap.indices)
    # residuals and translated bounds in one sum: one row as a (2, w)
    # block, then a full row and a one-entry row as four segments; the
    # oracle reads the bounds of a snapshot of its own, since a snapshot
    # keeps them once built
    for x, call in [(x, ((2, 10), None)),
                    (np.where(np.arange(10) == 3, -1.0, x), ((22,), [0, 1, 11, 12]))]:
        want = _pass_bits(("ok", oracles.row_pass(
            translate(src.base, src.cumulative_displacement), x)))
        sums.clear()
        assert _pass_bits(("ok", violated_slices(snap, x))) == want
        assert sums == [call]
        assert snap._b is None


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
    assert len(geometry._unsettled_rows(sys, x, 0, m)) * n >= 4 * SMALL_BLOCK


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
        assert len(geometry._unsettled_rows(full, point, 0, m)) * n >= 4 * SMALL_BLOCK
        assert _pass_bits(("ok", violated_slices(full, point))) == _pass_bits(
            ("ok", violated_slices(mixed, point)))
    assert full.b.tobytes() == mixed.b[:m].tobytes()


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
    path, and the passes: one per (snapshot, point), none on the engine's
    master.  Each pass makes exactly one product over the stored entries of
    its rows, and otherwise reads only those of its exact rows; moving the
    system reads them not at all."""
    passes = []
    real_unsettled = geometry._unsettled_rows
    real_pass = solver.violated_slices
    real_advance = DynamicSystemSource.advance
    exact_rows = threading.local()

    def counting_unsettled(sys, x, start, stop):
        rows = real_unsettled(sys, x, start, stop)
        passes.append((sys, np.array(x), start, stop, len(rows),
                       threading.current_thread()))
        exact_rows.rows = rows + start
        return rows

    pass_reads = []

    def counting_pass(sys, x, start=0, stop=None):
        me = threading.get_ident()
        before = _CountingEntries.on_thread(me)
        result = real_pass(sys, x, start, stop)
        stop = sys.m if stop is None else stop
        rows = exact_rows.rows
        # a translated snapshot's exact path also takes its rows' bounds,
        # and the slices of fully stored rows multiply their stored entries
        products = (1 if sys._shift is None else 2) + 1
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
        if workers:
            assert threading.current_thread() not in {p[-1] for p in passes}
            assert threading.get_ident() not in {t for t, _, _ in reads_in_solve}
        for sys, x, start, stop, count, _ in passes:
            h = len(oracles.violated_slices(sys, x, start, stop))
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
