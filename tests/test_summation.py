import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modap import summation
from modap.summation import FEW_ROWS, SMALL_BLOCK, column_sums, exact_dot, row_sums
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
    # math.fsum rejects inf + -inf with its own message, "-inf + inf in fsum"
    with pytest.raises(ValueError,
                       match="^the sum of the violated rows' slices overflows float64$"):
        column_sums(np.array([[1.0, math.inf], [2.0, -math.inf]]))


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


@st.composite
def sum_segments(draw):
    """Segments ``(values, starts)`` of a 1-D array for the segment form of
    ``row_sums``, drawn from a pool as :func:`sum_blocks` draws its rows.

    Up to 400 one-entry segments are mixed in among up to 12 of 2 to 1300
    entries, so the whole lies on either side of the small-block cut-off;
    some segments are all ``-0.0`` and some cancel exactly.
    """
    lengths = draw(st.lists(st.sampled_from([1, 2, 3, 17, 300, 1300]), max_size=12))
    lengths += [1] * draw(st.integers(0 if lengths else 1, 400))
    pool = np.array(draw(st.lists(pool_values, min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rng.shuffle(lengths)
    starts = np.cumsum([0] + lengths[:-1])
    values = rng.choice(pool, size=sum(lengths)) * rng.choice([-1.0, 1.0], size=sum(lengths))
    for lo, width in zip(starts.tolist(), lengths):
        kind = rng.integers(8)
        if kind == 0:
            values[lo:lo + width] = -0.0
        elif kind == 1 and width >= 3:
            big, small = rng.choice(pool, size=2)
            values[lo:lo + 3] = [big, small, -big]
    return values, starts


def _segments(*rows):
    """``(values, starts)`` of the given rows, one segment each."""
    return np.concatenate(rows), np.cumsum([0] + [len(r) for r in rows[:-1]])


def _fsum_rows(block):
    """The oracle: one ``math.fsum`` per row."""
    return np.array([math.fsum(row) for row in block.tolist()],
                    dtype=np.float64).reshape(block.shape[0])


def _fsum_segments(values, starts):
    """The oracle of the segment form: one ``math.fsum`` per segment."""
    flat, ends = values.tolist(), starts.tolist()[1:] + [values.size]
    return np.array([math.fsum(flat[lo:hi]) for lo, hi in zip(starts.tolist(), ends)],
                    dtype=np.float64).reshape(starts.size)


def _bits(sum_rows, *args):
    """Bits of ``sum_rows(*args)``, or the type and message it raises."""
    try:
        return sum_rows(*args).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


_WIDE = [0.0] * 1296  # pads a segment past the small-block cut-off


@settings(deadline=None)
@given(st.one_of(sum_blocks(), sum_segments()))
# segments: ties, cancellation, signed zeros and one-entry segments next to
# wide ones; a segment whose sum overflows, and inf with -inf
@example(_segments([1.0, 2.0 ** -53] + _WIDE, [3 * 2.0 ** -54], [-0.0],
                   [1.0, 3 * 2.0 ** -54] + _WIDE, [1e16, 1.0, -1e16] + _WIDE))
@example(_segments(*[[x] for x in (5e-324, -0.0, 2.0 ** -900, 2.0 ** 900)] * 100,
                   [2.0 ** 900, -2.0 ** -900, 5e-324] + _WIDE))
@example(_segments([1.0], [1.6e308, 1.6e308] + _WIDE, [math.inf]))
@example(_segments([1.0] * 300, [math.inf, -math.inf] + _WIDE))
# the bound and M of the widest segment: 1300 addends of 1 + 2^-51 beside a
# one-entry segment, whose width would make the level sum inexact
@example(_segments([1.0], [1.0 + 2.0 ** -51] * 1300))
@example(np.array([[1.0, 2.0 ** -53] + [0.0] * 1298] * 3))  # a tie: stays 1.0
@example(np.array([[1.0, 3 * 2.0 ** -54] + [0.0] * 1298] * 3))  # rounds up
@example(np.array([[1e16, 1.0, -1e16] + [0.0] * 1297] * 3))
# just below the midpoint under 1.0, whose lower gap is half its upper one
@example(np.array([[1.0, -2.0 ** -54 + 2.0 ** -90, -2.0 ** -88] + [0.0] * 1297] * 3))
# a level-1 midpoint tie whose remainder sum is exact: 1.5 stays, the
# odd 1.5 + 2^-52 rounds up to even; only fsum decides
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
# one column: the addend itself, with fsum's +0.0 for -0.0
@example(np.array([[-0.0], [5e-324], [-5e-324], [math.inf], [-math.inf], [math.nan]]))
@example(np.full((1000, 1), -0.0))
@example(np.full((1000, 1), -math.nan))
def test_row_sums_equal_fsum_bit_for_bit(case):
    if isinstance(case, tuple):  # the segment form
        assert _bits(row_sums, *case) == _bits(_fsum_segments, *case)
        return
    # the transposed view is what column_sums hands over
    for view in (case, case.T):
        assert _bits(row_sums, view) == _bits(_fsum_rows, view)


@settings(deadline=None)
@given(sum_blocks())
@example(np.random.default_rng(12).standard_normal((8, 1300)))
def test_strided_views_and_stacked_blocks_equal_fsum_bit_for_bit(block):
    # views with row and column strides, and the (2h, n) stack of a block
    # and another that a translated pass sums in one call; the level sums
    # are matrix products, which numpy runs by BLAS or by its own loop
    # depending on the strides
    stacked = np.vstack([block, -0.5 * block[::-1]])
    for view in (block[::2], block[:, ::3], block[::-1, ::2], stacked):
        for v in (view, view.T):
            assert _bits(row_sums, v) == _bits(_fsum_rows, v)


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
    # only the two rows whose sums lie exactly on a midpoint (rows 11 and
    # 115) need fsum; no column sum of the transposed view does
    block = np.random.default_rng(4).standard_normal((200, 100))
    assert block.size >= SMALL_BLOCK
    want = [_fsum_rows(view).tobytes() for view in (block, block.T)]
    calls = _counting_fsum(monkeypatch)
    assert [row_sums(view).tobytes() for view in (block, block.T)] == want
    assert calls == [100, 100]


def test_level_1_decides_most_rows(monkeypatch):
    # a Gaussian row's sum lies exactly on a midpoint now and then, which
    # only fsum decides (2 of these 200); none of these sums of squares does
    gauss = np.random.default_rng(4).standard_normal((200, 100))
    squares = np.random.default_rng(5).standard_normal((65, 1000)) ** 2
    want = [_fsum_rows(view).tobytes() for view in (gauss, squares)]
    calls = _counting_fsum(monkeypatch)
    assert row_sums(gauss).tobytes() == want[0]
    assert calls == [100, 100]
    calls.clear()
    assert row_sums(squares).tobytes() == want[1]
    assert calls == []


@st.composite
def scaled_blocks(draw):
    """A standard normal block whose rows each take a scale from 2^-1000 to
    2^1000, with rows of ``+0.0``, of ``-0.0``, of subnormals and a normal
    row below 2^-900 among them.  Row 0 keeps scale 1, so that the block
    scale lies in the vectorised range; both the block and its transpose are
    too large for the small-block path."""
    h = draw(st.integers(16, 48))
    n = draw(st.integers(80, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    block = rng.standard_normal((h, n)) * 2.0 ** rng.integers(-1000, 1001, (h, 1))
    block[0] = rng.standard_normal(n)
    kinds = rng.integers(0, 8, h)
    kinds[0] = 7
    for i in np.flatnonzero(kinds == 0):
        block[i] = 0.0
    for i in np.flatnonzero(kinds == 1):
        block[i] = -0.0
    for i in np.flatnonzero(kinds == 2):
        block[i] = rng.integers(-2 ** 20, 2 ** 20, n) * 5e-324
    for i in np.flatnonzero(kinds == 3):
        block[i] = rng.standard_normal(n) * 2.0 ** -950
    return block


@settings(deadline=None)
@given(scaled_blocks())
def test_row_sums_of_rows_on_many_scales_equal_fsum(block):
    assert block.size >= SMALL_BLOCK
    for view in (block, block.T):
        assert _bits(row_sums, view) == _bits(_fsum_rows, view)


def test_the_block_levels_alone_decide_a_gaussian_block(monkeypatch):
    # level 1 decides all but the three rows that sum exactly onto a
    # midpoint (rows 123, 154 and 205), and every column
    block = np.random.default_rng(7).standard_normal((243, 100))
    want = [_fsum_rows(view).tobytes() for view in (block, block.T)]
    calls = _counting_fsum(monkeypatch)
    assert [row_sums(view).tobytes() for view in (block, block.T)] == want
    assert calls == [100, 100, 100]


def test_only_rows_far_below_the_block_scale_go_to_fsum(monkeypatch):
    block = np.random.default_rng(8).standard_normal((243, 100))
    block[::10] *= 2.0 ** -600
    want = _fsum_rows(block).tobytes()
    calls = _counting_fsum(monkeypatch)
    assert row_sums(block).tobytes() == want
    assert calls == [100] * 25


def test_zero_sums_are_decided_by_the_block_levels(monkeypatch):
    # the column sums of three sparse slices: most columns are zero, one
    # holds +0.0 and -0.0, one cancels exactly, one holds -0.0 alone
    block = np.zeros((3, 1000))
    block[:, :10] = np.random.default_rng(9).standard_normal((3, 10))
    block[:, 10] = [0.0, -0.0, -0.0]
    block[:, 11] = [1.0, -3.0, 2.0]
    block[:, 12] = -0.0
    want = _fsum_rows(block.T).tobytes()
    calls = []
    real = math.fsum
    monkeypatch.setattr(summation.math, "fsum", lambda row: calls.append(row) or real(row))
    assert row_sums(block.T).tobytes() == want
    # the rule for rows without remainders decides every zero and
    # cancelling column; fsum takes only Gaussian columns 0, 3 and 5,
    # whose sums of three lie exactly on a midpoint
    assert calls == [block[:, j].tolist() for j in (0, 3, 5)]


@st.composite
def zero_sum_blocks(draw):
    """A block past the small-block cut-off whose rows are standard normal
    or sum to zero without remainders: zeros of either sign, ``-0.0`` alone,
    or zeros with an exactly cancelling ``[a, -a]`` or ``[a, -3a, 2a]`` at
    permuted places.  a is an integer below 2^20, so every such entry is a
    multiple of the block's ``u sigma``; the whole block is scaled by a
    power of two.  Returns the block and a mask of its zero-sum rows."""
    h = draw(st.integers(2, 40))
    n = draw(st.integers(max(3, -(-SMALL_BLOCK // h)), 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = rng.integers(0, 5, h)
    block = rng.standard_normal((h, n))
    for i in np.flatnonzero(kinds < 4):
        block[i] = rng.choice([0.0, -0.0], n) if kinds[i] != 1 else -0.0
        if kinds[i] >= 2:
            a = float(rng.integers(1, 2 ** 20)) * rng.choice([-1.0, 1.0])
            entries = [a, -a] if kinds[i] == 2 else [a, -3 * a, 2 * a]
            block[i, rng.choice(n, len(entries), replace=False)] = entries
    return block * 2.0 ** draw(st.integers(-850, 850)), kinds < 4


@settings(deadline=None)
@given(zero_sum_blocks())
# signed zeros, -0.0 alone, [a, -a] and a permuted [a, -3a, 2a], and a
# standard normal row
@example((np.vstack([[0.0, -0.0] * 125, [-0.0] * 250, [5.0] + [0.0] * 248 + [-5.0],
                     [0.0] * 100 + [2.0] + [-0.0] * 100 + [-3.0] + [0.0] * 47 + [1.0],
                     np.random.default_rng(0).standard_normal(250)]),
          np.array([True] * 4 + [False])))
def test_rows_without_remainders_are_decided_without_fsum(case):
    # a row whose addends are their own high parts sums exactly at level 1,
    # so fsum takes only standard normal rows (on a midpoint, or far below
    # the block's scale), in the block and in its transposed view
    block, zero = case
    assert block.size >= SMALL_BLOCK
    views = (block, np.ascontiguousarray(block.T).T)
    want = _fsum_rows(block).tobytes()
    assert not np.frombuffer(want)[zero].any()
    zero_rows = {tuple(row) for row in block[zero].tolist()}
    calls = []
    real = math.fsum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(summation.math, "fsum", lambda row: calls.append(tuple(row)) or real(row))
        assert [row_sums(view).tobytes() for view in views] == [want, want]
    assert zero_rows.isdisjoint(calls)


def test_a_block_of_zeros_sums_to_zeros(monkeypatch):
    # the residual products at x = 0, signed zeros among them
    block = np.zeros((300, 100))
    block[::7] = -0.0
    want = _fsum_rows(block).tobytes()
    calls = _counting_fsum(monkeypatch)
    assert row_sums(block).tobytes() == want
    assert calls == []


def test_a_block_that_level_1_decides_takes_no_second_level_or_fsum(monkeypatch):
    # sums of squares, which level 1 decides (see above), as a block and as
    # segments of 2 to 1000 addends
    squares = np.random.default_rng(5).standard_normal((65, 1000)) ** 2
    lengths = np.random.default_rng(6).integers(2, 1001, 40)
    values = squares.reshape(-1)[:lengths.sum()]
    starts = np.cumsum(lengths) - lengths
    want = [_fsum_rows(squares).tobytes(), _fsum_segments(values, starts).tobytes()]

    def unreachable(*args):
        raise AssertionError("level 1 decided every row")

    monkeypatch.setattr(summation, "_fsum_rows", unreachable)
    assert row_sums(squares).tobytes() == want[0]
    assert row_sums(values, starts).tobytes() == want[1]


def test_one_entry_segments_are_their_own_sums(monkeypatch):
    # ragged segments: one-entry segments of every kind, far below the
    # largest magnitude among them, next to wide segments
    rng = np.random.default_rng(11)
    ones = [[x] for x in (5e-324, -5e-324, 0.0, -0.0, 2.0 ** -899, -3.0 * 2.0 ** -700,
                          1e-300, -1.0)]
    wide = [list(rng.standard_normal(int(w))) for w in rng.integers(2, 400, 12)]
    rows = ones * 40 + wide
    order = rng.permutation(len(rows))
    values, starts = _segments(*[rows[i] for i in order])
    assert values.size >= SMALL_BLOCK
    want = _fsum_segments(values, starts).tobytes()
    widths = []
    real = summation._rounded_rows

    def rounded(tau1, tau2, bound):
        widths.append(len(tau1))
        return real(tau1, tau2, bound)

    calls = _counting_fsum(monkeypatch)
    monkeypatch.setattr(summation, "_rounded_rows", rounded)
    assert row_sums(values, starts).tobytes() == want
    # only the wide segments reach the level-1 test, and none needs fsum
    assert widths == [len(wide)] and calls == []


# the level-1 decision's inputs: midpoints and ties to even (tau2 half an
# ulp of tau1, or a few ulps off it), signed zeros, subnormals, infinities
# and nan; summation.row_sums only passes it finite values
_SPECIAL_TAUS = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 1.0, math.inf, -math.inf,
                 math.nan]


@st.composite
def decision_rows(draw):
    h = draw(st.sampled_from([1, 2, FEW_ROWS - 1, FEW_ROWS, FEW_ROWS + 1, 2 * FEW_ROWS]))
    tau1, tau2 = [], []
    for _ in range(h):
        a = draw(st.one_of(st.floats(), st.sampled_from(_SPECIAL_TAUS)))
        kind = draw(st.sampled_from(["tie", "tie", "subnormal", "any"]))
        if kind == "tie" and math.isfinite(a):
            b = math.ulp(a) / 2 * draw(st.sampled_from([1, -1, 3, -3]))
            b = math.nextafter(b, draw(st.sampled_from([0.0, b, 2 * b])))
        elif kind == "subnormal":
            b = draw(st.integers(-2 ** 52 + 1, 2 ** 52 - 1)) * 5e-324
        else:
            b = draw(st.one_of(st.floats(), st.sampled_from(_SPECIAL_TAUS)))
        tau1.append(a)
        tau2.append(b)
    bound = draw(st.sampled_from([0.0, 5e-324, 2.0 ** -1060, 2.0 ** -80, 1e-300, 1.0]))
    return np.array(tau1), np.array(tau2), bound


def _decision_bits(decision):
    """The bits of a level-1 decision, every nan made one: IEEE 754 leaves
    open which operand's payload and sign a nan sum keeps, and numpy's
    loops and Python's float addition do not pick the same one."""
    res, sure = decision
    assert res.dtype == np.float64 and sure.dtype == bool
    res = np.where(np.isnan(res), math.nan, res)
    return res.tobytes(), sure.tobytes()


@settings(max_examples=200, deadline=None)
@given(decision_rows())
@example((np.array([1.0, 3.0]), np.array([2.0 ** -53, 2.0 ** -52]), 0.0))  # ties to even
@example((np.full(FEW_ROWS, 1.0), np.full(FEW_ROWS, -2.0 ** -54), 0.0))  # at the cut-off
@example((np.full(FEW_ROWS + 1, -0.0), np.full(FEW_ROWS + 1, -0.0), 5e-324))  # just above
@example((np.array([math.nan]),  # two nans with different payloads
          np.frombuffer(bytes.fromhex("2ca07c328650fb7f"), dtype=np.float64), 0.0))
def test_both_forms_of_the_level_1_decision_agree_bit_for_bit(case):
    tau1, tau2, bound = case
    res, sure = summation._decided(tau1.tolist(), tau2.tolist(), bound)
    few = _decision_bits((np.array(res), np.array(sure, dtype=bool)))
    with np.errstate(all="ignore"):  # inf and nan, which row_sums never passes
        rows = _decision_bits(summation._rounded_rows(tau1, tau2, bound))
    assert few == rows


def test_the_level_1_decision_takes_python_floats_up_to_few_rows(monkeypatch):
    # row_sums decides a block of up to FEW_ROWS rows in Python floats, and
    # a wider block, or segments of any count, with numpy
    forms = []
    for name in ("_decided", "_rounded_rows"):
        real = getattr(summation, name)
        monkeypatch.setattr(summation, name,
                            lambda *args, real=real, name=name: forms.append(name) or real(*args))
    rng = np.random.default_rng(12)
    for h in (1, FEW_ROWS, FEW_ROWS + 1):
        block = rng.standard_normal((h, -(-SMALL_BLOCK // h) + 1))
        values, starts = _segments(*block)
        assert _bits(row_sums, block) == _bits(_fsum_rows, block)
        assert _bits(row_sums, values, starts) == _bits(_fsum_segments, values, starts)
    assert forms == ["_decided", "_rounded_rows"] * 2 + ["_rounded_rows"] * 2


# addends that sum onto midpoints often: short sums of small integers
# times powers of two, next to standard normal values
few_row_addends = st.one_of(
    st.integers(-8, 8).map(float),
    st.sampled_from([2.0 ** -53, -2.0 ** -53, 2.0 ** 52, 0.5, -0.0, 5e-324]),
    st.floats(-4, 4, allow_nan=False),
)


@st.composite
def few_row_sums(draw):
    """A block or segment array of 1 to 20 rows, past the small-block
    cut-off; each row draws a few addends and repeats them, with signs, to
    its width, so that many rows sum exactly onto a midpoint."""
    h = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        widths = [-(-SMALL_BLOCK // h) + int(draw(st.integers(0, 40)))] * h
    else:
        widths = (rng.integers(1, 2 * SMALL_BLOCK // h + 2, h)).tolist()
        widths[0] += max(0, SMALL_BLOCK - sum(widths))
    rows = []
    for width in widths:
        pool = np.array(draw(st.lists(few_row_addends, min_size=1, max_size=4)))
        rows.append(rng.choice(pool, width) * rng.choice([-1.0, 1.0], width))
    if len(set(widths)) == 1 and draw(st.booleans()):
        return (np.array(rows),)
    return _segments(*rows)


@settings(max_examples=200, deadline=None)
@given(few_row_sums())
def test_row_sums_of_few_rows_equal_fsum(args):
    assert args[0].size >= SMALL_BLOCK
    oracle = _fsum_rows if len(args) == 1 else _fsum_segments
    assert _bits(row_sums, *args) == _bits(oracle, *args)


def test_level_1_weights_are_views_of_few_vectors(monkeypatch):
    # a slice block's width is h, which changes from pass to pass: every
    # width reads one shared read-only vector, rebuilt O(log width) times
    monkeypatch.setattr(summation, "_ones_shared", np.ones(0))
    rng = np.random.default_rng(5)
    built = {}  # by id, holding each vector so that no id is reused
    for width in [*range(SMALL_BLOCK // 2, 1500), 700, 3, 1400]:
        values = rng.standard_normal((2, width))
        got = row_sums(values)
        assert got.tobytes() == np.array([math.fsum(r) for r in values.tolist()]).tobytes()
        built[id(summation._ones_shared)] = summation._ones_shared
    assert len(built) <= 1 + math.ceil(math.log2(1500 / (SMALL_BLOCK // 2)))
    ones = summation._ones(1000)
    assert not ones.flags.writeable and ones.shape == (1000,) and (ones == 1.0).all()
