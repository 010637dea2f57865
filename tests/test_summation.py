import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modap import summation
from modap.summation import SMALL_BLOCK, column_sums, exact_dot, row_sums
from oracles import VectorExpansion, grow_expansion

finite_floats = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)

# wide magnitudes, subnormals and signed zeros, plus values that cancel;
# at most 12 rows of at most 1e300 cannot overflow
addends = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.sampled_from([1e16, -1e16, 1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072014e-308]),
)


@st.composite
def blocks(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(addends, min_size=n, max_size=n), max_size=12))
    return np.array(rows, dtype=np.float64).reshape(len(rows), n)


def _oracle(*parts):
    """The expansion sum of the parts' rows, one accumulator per part,
    merged in order."""
    total = VectorExpansion(parts[0].shape[1])
    for part in parts:
        acc = VectorExpansion(part.shape[1])
        for row in part:
            acc.add(row)
        total.merge(acc)
    return total.rounded()


def test_exact_dot_simple():
    assert exact_dot(np.array([3.0, 4.0]), np.array([1.0, 1.0])) == 7.0


def test_exact_dot_cancellation():
    # naive left-to-right float addition loses the small term here
    u = np.array([1e16, 1.0, -1e16])
    v = np.ones(3)
    assert exact_dot(u, v) == 1.0


@given(st.lists(finite_floats, min_size=1, max_size=30), st.randoms())
def test_grow_expansion_matches_fsum_under_shuffling(values, rnd):
    partials = []
    for v in values:
        grow_expansion(partials, v)
    assert math.fsum(partials) == math.fsum(values)
    shuffled = list(values)
    rnd.shuffle(shuffled)
    other = []
    for v in shuffled:
        grow_expansion(other, v)
    assert math.fsum(other) == math.fsum(partials)


@given(blocks(), st.randoms(), st.integers(0, 12))
@example(np.array([[1e16, -0.0], [1.0, -0.0], [-1e16, -0.0]]), random.Random(0), 1)
@example(np.array([[5e-324, 1e300], [5e-324, -1e300], [-0.0, 1e-300]]), random.Random(1), 2)
def test_column_sums_match_the_expansion_oracle(block, rnd, cut):
    expected = _oracle(block).tobytes()
    assert column_sums(block).tobytes() == expected
    # any order of the rows, and the reports of any split in any order
    rows = list(block)
    rnd.shuffle(rows)
    shuffled = np.array(rows).reshape(block.shape)
    assert column_sums(shuffled).tobytes() == expected
    cut = min(cut, len(block))
    left, right = shuffled[:cut], shuffled[cut:]
    assert column_sums(np.concatenate([right, left])).tobytes() == expected
    assert _oracle(left, right).tobytes() == expected


def test_column_sums_cancellation_and_signed_zeros():
    block = np.array([[1e16, -0.0, 5e-324], [1.0, -0.0, 5e-324], [-1e16, -0.0, -0.0]])
    sums = column_sums(block)
    assert sums.tolist() == [1.0, 0.0, 1e-323]
    assert not np.signbit(sums[1])


def test_column_sums_of_empty_block_are_zeros():
    sums = column_sums(np.empty((0, 4)))
    assert sums.tobytes() == np.zeros(4).tobytes()
    assert _oracle(np.empty((0, 4))).tobytes() == sums.tobytes()


def test_column_sums_overflow_is_a_value_error():
    with pytest.raises(ValueError, match="overflows float64"):
        column_sums(np.array([[1.6e308, 0.0], [1.6e308, 1.6e-8]]))


def test_vector_expansion_merge_dim_mismatch():
    a, b = VectorExpansion(2), VectorExpansion(3)
    with pytest.raises(ValueError, match="dimension"):
        a.merge(b)


# values for row_sums: ties to even (1 + 2^-53 is a midpoint), cancellation,
# subnormals, signed zeros, the edges of the vectorised range (2^-900 and
# 2^900) and values whose sums overflow
pool_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1.0, 2.0 ** -53, 3 * 2.0 ** -54, 2.0 ** -53 + 2.0 ** -105, 1e16,
                     5e-324, 2.2250738585072014e-308, 0.0, -0.0, 2.0 ** -900,
                     2.0 ** 900, 1.6e308, 1.7976931348623157e308, math.inf]),
)


@st.composite
def sum_blocks(draw):
    """A block drawn from a small pool of values, with random signs.

    Its shape puts it on either side of the small-block cut-off; some rows
    are all ``-0.0`` and some are a pool value and its negation around
    another pool value, which cancel exactly.
    """
    width = draw(st.sampled_from([0, 1, 2, 3, 17, 300, 1300]))
    height = draw(st.integers(0, 8 if width >= 300 else 500))
    pool = np.array(draw(st.lists(pool_values, min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    block = rng.choice(pool, size=(height, width)) * rng.choice([-1.0, 1.0], size=(height, width))
    for i in range(height):
        kind = rng.integers(8)
        if kind == 0:
            block[i] = -0.0
        elif kind == 1 and width >= 3:
            big, small = rng.choice(pool, size=2)
            block[i, :3] = [big, small, -big]
    return block


def _fsum_rows(block):
    """The oracle: one ``math.fsum`` per row."""
    return np.array([math.fsum(row) for row in block.tolist()],
                    dtype=np.float64).reshape(block.shape[0])


def _bits(sum_rows, block):
    """Bits of ``sum_rows(block)``, or the type and message it raises."""
    try:
        return sum_rows(block).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(sum_blocks())
@example(np.array([[1.0, 2.0 ** -53] + [0.0] * 1298] * 3))  # a tie: stays 1.0
@example(np.array([[1.0, 3 * 2.0 ** -54] + [0.0] * 1298] * 3))  # rounds up
@example(np.array([[1e16, 1.0, -1e16] + [0.0] * 1297] * 3))
# just below the midpoint under 1.0, whose lower gap is half its upper one
@example(np.array([[1.0, -2.0 ** -54 + 2.0 ** -90, -2.0 ** -88] + [0.0] * 1297] * 3))
# a level-1 midpoint tie whose remainder sum is exact: 1.5 stays, the
# odd 1.5 + 2^-52 rounds up to even; level 2 sees nothing left and decides
@example(np.array([[1.5, 2.0 ** -53] + [0.0] * 1298,
                   [1.5 + 2.0 ** -52, 2.0 ** -53] + [0.0] * 1298]))
# remainders whose float sum is inexact: 2^-125 is lost to 2^-53 + 2^-70,
# and the bound still decides both rows at level 1 on either side of the
# midpoint; with 2^-110 in place of 2^-70 only math.fsum decides
@example(np.array([[1.5, 2.0 ** -53, 2.0 ** -70, 2.0 ** -125] + [0.0] * 1296,
                   [1.5, 2.0 ** -53, -2.0 ** -70, 2.0 ** -125] + [0.0] * 1296,
                   [1.5, 2.0 ** -53, 2.0 ** -110] + [0.0] * 1297,
                   [1.5, 2.0 ** -53, -2.0 ** -110] + [0.0] * 1297]))
# numpy's eight-way pairwise sum rounds the remainders to 2^-53 - 2^-106,
# below the midpoint that their exact sum 2^-53 + 2^-109 is above; only the
# bound keeps level 1 from deciding 1.5
@example(np.array([[1.5, 2.0 ** -53] + [0.0] * 6 + [1.75 * 2.0 ** -107] + [0.0] * 21
                   + [-1.5 * 2.0 ** -107] + [0.0] * 1269] * 2))
# widths where M steps from 10 to 11; at 1024 the maxima sum to nearly sigma
@example(np.array([[2.0 - 2.0 ** -52] * 1023 + [2.0 ** -60], [-1.0] * 1024]))
@example(np.array([[2.0 - 2.0 ** -52] * 1024 + [2.0 ** -60], [-1.0] * 1025]))
@example(np.full((400, 2), -0.0))
@example(np.full((400, 2), 5e-324))
@example(np.array([[1.6e308, 1.6e308] + [0.0] * 1298] * 3))  # overflows
@example(np.array([[math.inf, -math.inf] + [0.0] * 1298] * 3))
@example(np.empty((600, 0)))
@example(np.empty((0, 1300)))
def test_row_sums_equal_fsum_bit_for_bit(block):
    # the transposed view is what column_sums hands over
    for view in (block, block.T):
        assert _bits(row_sums, view) == _bits(_fsum_rows, view)


def _counting_fsum(monkeypatch):
    calls = []
    real = math.fsum

    def fsum(values):
        calls.append(len(values))
        return real(values)

    monkeypatch.setattr(summation.math, "fsum", fsum)
    return calls


def test_a_sum_near_a_midpoint_goes_to_fsum(monkeypatch):
    # 1 + 2^-53 + 2^-105 is 2^-105 above the midpoint between 1 and its
    # successor, far closer than the bound on the extraction's remainder
    rng = np.random.default_rng(3)
    block = rng.standard_normal((4, 1300))
    block[2] = 0.0
    block[2, :2] = [1.0, 2.0 ** -53 + 2.0 ** -105]
    want = _fsum_rows(block).tobytes()
    calls = _counting_fsum(monkeypatch)
    assert row_sums(block).tobytes() == want
    assert row_sums(block)[2] == math.nextafter(1.0, 2.0)
    assert calls == [1300, 1300]  # row 2, once per call


def test_a_gaussian_block_needs_no_fallback(monkeypatch):
    block = np.random.default_rng(4).standard_normal((200, 100))
    assert block.size + 4 * 200 >= SMALL_BLOCK
    want = [_fsum_rows(view).tobytes() for view in (block, block.T)]
    calls = _counting_fsum(monkeypatch)
    assert [row_sums(view).tobytes() for view in (block, block.T)] == want
    assert calls == []


def _counting_level2(monkeypatch):
    rows = []
    real = summation._level2

    def level2(rest, *args):
        rows.append(len(rest))
        return real(rest, *args)

    monkeypatch.setattr(summation, "_level2", level2)
    return rows


def test_level_1_decides_most_rows(monkeypatch):
    # a Gaussian row's sum lies exactly on a midpoint now and then, which
    # only level 2 decides; none of these sums of squares does
    gauss = np.random.default_rng(4).standard_normal((200, 100))
    squares = np.random.default_rng(5).standard_normal((65, 1000)) ** 2
    want = [_fsum_rows(view).tobytes() for view in (gauss, squares)]
    calls = _counting_fsum(monkeypatch)
    deep = _counting_level2(monkeypatch)
    assert row_sums(gauss).tobytes() == want[0]
    assert 0 < sum(deep) < 20 and calls == []
    deep.clear()
    assert row_sums(squares).tobytes() == want[1]
    assert deep == [] and calls == []
