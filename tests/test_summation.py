import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from modap.summation import column_sums, exact_dot
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
