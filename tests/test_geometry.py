import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import one_iteration
from modap import InequalitySystem
from modap.dynamics import translate
from modap.geometry import eps_membership, max_relative_violation, vector_norm, violated_slices
from modap.summation import column_sums

BOX = InequalitySystem([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])  # x1 <= 1, x2 <= 1


def system_strategy(max_n=5, max_m=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        m = draw(st.integers(1, max_m))
        coef = st.floats(min_value=-5, max_value=5, allow_nan=False)
        a = np.array(
            [[draw(coef) for _ in range(n)] for _ in range(m)], dtype=float
        )
        # keep rows well away from zero so norms stay meaningful
        for i in range(m):
            if np.linalg.norm(a[i]) < 1e-2:
                a[i, i % n] += 1.0
        b = np.array([draw(coef) for _ in range(m)], dtype=float)
        x = np.array([draw(coef) for _ in range(n)], dtype=float)
        return InequalitySystem(a, b), x

    return build()


class TestInequalitySystem:
    def test_cached_norms_match_fresh(self):
        a = np.array([[3.0, 4.0], [1.0, -2.0], [0.5, 0.0]])
        sys = InequalitySystem(a, [1.0, 2.0, 3.0])
        fresh = (a * a).sum(axis=1)
        assert np.allclose(sys.row_norms_sq, fresh, rtol=1e-12)

    def test_blocked_set_up_sums_equal_the_row_loop(self):
        # rows spread over 2^120 so the sums cancel and round, in several
        # row blocks of the vectorised path
        rng = np.random.default_rng(5)
        a = rng.standard_normal((700, 300)) * 2.0 ** rng.integers(-60, 60, (700, 300))
        sys = InequalitySystem(a, np.ones(700))
        want = [math.fsum((row * row).tolist()) for row in a]
        assert sys.row_norms_sq.tobytes() == np.array(want).tobytes()
        v = rng.standard_normal(300)
        moved = translate(sys, v)
        assert moved.b.tobytes() == oracles.translate(sys, v).b.tobytes()

    def test_zero_row_rejected_with_index(self):
        with pytest.raises(ValueError, match="row 1"):
            InequalitySystem([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            InequalitySystem([[1.0, 0.0]], [1.0, 2.0])

    @pytest.mark.parametrize("a,b,match", [
        ([[1.0, math.nan]], [1.0], "row 0 has a non-finite coefficient"),
        ([[1.0, 0.0], [math.inf, 1.0]], [1.0, 1.0], "row 1 has a non-finite coefficient"),
        ([[1.0, 0.0]], [math.nan], "bound of row 0 is not finite"),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, -math.inf], "bound of row 1 is not finite"),
        ([[1e200, 0.0]], [1.0], "row 0: its squared norm overflows"),
        ([[1e154, 1e154]], [1.0], "row 0: its squared norm overflows"),
        # wide enough for the vectorised sums
        ([[1.0] * 700, [1e154, 1e154] + [0.0] * 698], [1.0, 1.0],
         "row 1: its squared norm overflows"),
        # not the zero vector: (1e-170)^2 underflows to 0
        ([[1.0, 0.0], [1e-170, 0.0]], [1.0, -1e-170], "row 1: its squared norm underflows"),
    ])
    def test_non_finite_input_rejected(self, a, b, match):
        with pytest.raises(ValueError, match=match):
            InequalitySystem(a, b)

    @pytest.mark.parametrize("bound,shift", [(1.5e308, 1e308), (-1.5e308, -1e308)])
    def test_overflowing_translated_bound_rejected(self, bound, shift):
        # 1.5e308 + 1e308 is past float64 although both terms are finite
        sys = InequalitySystem([[1.0, 0.0], [0.0, 1.0]], [bound, 1.0])
        moved = translate(sys, [shift, 0.0])
        match = "row 0: its translated bound overflows float64"
        with pytest.raises(OverflowError, match=match):
            violated_slices(moved, np.array([bound, 0.0]))
        with pytest.raises(OverflowError, match=match):
            moved.b


class TestResidual:
    def test_hand_dot_product(self):
        sys = InequalitySystem([[3.0, 4.0]], [5.0])
        assert oracles.residual(sys, 0, [1.0, 1.0]) == 2.0
        block, worst = violated_slices(sys, np.array([1.0, 1.0]))
        assert np.array_equal(block, [[2.0 / 25.0 * 3.0, 2.0 / 25.0 * 4.0]])
        assert worst == 2.0 / 5.0

    def test_point_on_hyperplane(self):
        sys = InequalitySystem([[1.0, 0.0]], [0.0])
        assert oracles.residual(sys, 0, [0.0, 0.0]) == 0.0
        assert violated_slices(sys, np.zeros(2))[0].shape == (0, 2)

    def test_feasible_interior(self):
        sys = InequalitySystem([[1.0, 0.0]], [1.0])
        assert oracles.residual(sys, 0, [0.5, 7.0]) == -0.5
        assert violated_slices(sys, np.array([0.5, 7.0]))[0].shape == (0, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            max_relative_violation(BOX, [0.0, 0.0, 0.0])


class TestReflectionAndProjection:
    def test_reflection_hand_value(self):
        sys = InequalitySystem([[0.0, 2.0]], [2.0])
        assert np.array_equal(violated_slices(sys, np.array([0.0, 3.0]))[0], [[0.0, 2.0]])

    def test_reflection_zero_on_hyperplane(self):
        sys = InequalitySystem([[1.0, 2.0]], [5.0])
        assert np.array_equal(oracles.reflection_vector(sys, 0, [1.0, 2.0]), [0.0, 0.0])
        assert violated_slices(sys, np.array([1.0, 2.0]))[0].shape == (0, 2)

    def test_reflection_points_away_for_interior(self):
        sys = InequalitySystem([[1.0, 0.0]], [0.0])
        assert np.array_equal(oracles.reflection_vector(sys, 0, [-2.0, 5.0]), [-2.0, 0.0])
        assert violated_slices(sys, np.array([-2.0, 5.0]))[0].shape == (0, 2)

    def test_projection_hand_values(self):
        # the projection is x minus the row's slice
        sys = InequalitySystem([[0.0, 2.0]], [2.0])
        x = np.array([0.0, 3.0])
        assert np.array_equal(x - violated_slices(sys, x)[0][0], [0.0, 1.0])
        sys2 = InequalitySystem([[1.0, 1.0]], [0.0])
        x = np.array([1.0, 1.0])
        assert np.allclose(x - violated_slices(sys2, x)[0][0], [0.0, 0.0], atol=1e-15)


class TestPositiveSlice:
    def test_feasible_point_gives_zero_slice(self):
        sys = InequalitySystem([[1.0, 0.0]], [1.0])
        assert violated_slices(sys, np.array([0.5, 7.0]))[0].shape == (0, 2)

    def test_violated_point_hand_value(self):
        sys = InequalitySystem([[1.0, 0.0]], [1.0])
        assert np.array_equal(violated_slices(sys, np.array([3.0, 0.0]))[0], [[2.0, 0.0]])

    def test_boundary_counts_as_satisfied(self):
        sys = InequalitySystem([[1.0, 0.0]], [1.0])
        assert violated_slices(sys, np.array([1.0, 5.0]))[0].shape == (0, 2)


class TestPseudoProjection:
    def test_two_violated_rows_hand_average(self):
        block, _ = violated_slices(BOX, np.array([3.0, 2.0]))
        assert block.shape[0] == 2
        assert np.array_equal(column_sums(block) / 2, [1.0, 0.5])

    def test_feasible_point(self):
        block, _ = violated_slices(BOX, np.zeros(2))
        assert block.shape[0] == 0
        assert np.array_equal(column_sums(block), [0.0, 0.0])

    def test_single_violation_equals_slice(self):
        x = np.array([3.0, 0.0])
        block, _ = violated_slices(BOX, x)
        assert block.shape[0] == 1
        assert np.array_equal(column_sums(block), oracles.positive_slice(BOX, 0, x))


class TestFixedStepDirection:
    def test_hand_normalization(self):
        # single row with phi(x) = (3, 4): the step is (1.2, 1.6)
        sys = InequalitySystem([[3.0, 4.0]], [0.0])
        out = one_iteration(sys, [3.0, 4.0], "modap", 2.0)
        assert out.solution == pytest.approx([3.0 - 1.2, 4.0 - 1.6], rel=1e-12)

    def test_axis_aligned(self):
        sys = InequalitySystem([[0.0, 5.0]], [0.0])
        out = one_iteration(sys, [0.0, 5.0], "modap", 1.0)
        assert out.solution == pytest.approx([0.0, 4.0], rel=1e-12)


class TestEpsMembership:
    def test_feasible_any_eps(self):
        sys = InequalitySystem([[1.0, 0.0]], [1.0])
        assert oracles.eps_satisfies(sys, 0, [0.0, 0.0], 1e-12)
        assert eps_membership(sys, [0.0, 0.0], 1e-12)

    def test_small_violation_inside_eps(self):
        sys = InequalitySystem([[1.0, 0.0]], [1.0])
        assert oracles.eps_satisfies(sys, 0, [1.0 + 5e-8, 0.0], 1e-7)
        assert not oracles.eps_satisfies(sys, 0, [2.0, 0.0], 1e-7)
        assert eps_membership(sys, [1.0 + 5e-8, 0.0], 1e-7)
        assert not eps_membership(sys, [2.0, 0.0], 1e-7)

    def test_membership_examples(self):
        assert eps_membership(BOX, [0.0, 0.0], 1e-7)
        near = [1.0 + 5e-8, 1.0 + 5e-8]
        assert eps_membership(BOX, near, 1e-7)
        assert not eps_membership(BOX, near, 1e-9)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            eps_membership(BOX, [0.0, 0.0], 0.0)


class TestMaxRelativeViolation:
    def test_feasible_is_zero(self):
        assert max_relative_violation(BOX, [0.0, 0.0]) == 0.0

    def test_hand_value(self):
        sys = InequalitySystem([[1.0, 0.0]], [1.0])
        assert max_relative_violation(sys, [3.0, 0.0]) == 2.0

    def test_row_scale_invariant_value(self):
        sys = InequalitySystem([[2.0, 0.0]], [2.0])
        assert max_relative_violation(sys, [3.0, 0.0]) == 2.0


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=80)
@given(system_strategy())
def test_projection_lands_on_hyperplane(sys_x):
    sys, x = sys_x
    for i in range(sys.m):
        p = oracles.orthogonal_projection(sys, i, x)
        lhs = float(np.dot(sys.a[i], p))
        assert abs(lhs - float(sys.b[i])) <= abs(float(sys.b[i])) * 1e-12 + 1e-12


@settings(max_examples=80)
@given(system_strategy())
def test_slice_flag_matches_residual_sign(sys_x):
    """The pass returns the reflection of exactly the rows with a positive
    residual, in row order."""
    sys, x = sys_x
    want = []
    for i in range(sys.m):
        s = oracles.positive_slice(sys, i, x)
        if oracles.residual(sys, i, x) > 0:
            assert np.array_equal(s, oracles.reflection_vector(sys, i, x))
            want.append(s)
        else:
            assert np.array_equal(s, np.zeros(sys.n))
    block, _ = violated_slices(sys, x)
    assert np.array_equal(block, np.array(want).reshape(len(want), sys.n))


@settings(max_examples=60)
@given(system_strategy(), st.floats(min_value=0.01, max_value=100.0))
def test_row_scaling_leaves_decisions_unchanged(sys_x, c):
    sys, x = sys_x
    scaled = InequalitySystem(sys.a * c, sys.b * c)
    for i in range(sys.m):
        s1 = oracles.positive_slice(sys, i, x)
        s2 = oracles.positive_slice(scaled, i, x)
        assert (oracles.residual(sys, i, x) > 0) == (oracles.residual(scaled, i, x) > 0)
        assert np.allclose(s1, s2, atol=1e-10, rtol=1e-10)
        assert oracles.eps_satisfies(sys, i, x, 1e-7) == oracles.eps_satisfies(scaled, i, x, 1e-7)
    block1, block2 = violated_slices(sys, x)[0], violated_slices(scaled, x)[0]
    assert block1.shape == block2.shape
    assert np.allclose(block1, block2, atol=1e-10, rtol=1e-10)
    assert max_relative_violation(sys, x) == pytest.approx(
        max_relative_violation(scaled, x), abs=1e-10, rel=1e-10
    )


@settings(max_examples=80)
@given(system_strategy(), st.floats(min_value=1e-3, max_value=10.0))
# phi = [1e-200]: its square underflows to 0
@example((InequalitySystem([[1.0]], [-1e-200]), np.array([0.0])), 1.0)
def test_fixed_step_has_requested_length(sys_x, length):
    sys, x = sys_x
    if violated_slices(sys, x)[0].shape[0] == 0:
        return
    out = one_iteration(sys, x, "modap", length)
    assert out.iterations == 1
    assert out.trace[0].step_norm == pytest.approx(length, rel=1e-12)


@settings(max_examples=80)
@given(system_strategy())
def test_membership_equals_forall_rows(sys_x):
    sys, x = sys_x
    eps = 1e-7
    assert eps_membership(sys, x, eps) == all(
        oracles.eps_satisfies(sys, i, x, eps) for i in range(sys.m)
    )


@settings(max_examples=80)
@given(system_strategy())
def test_phi_reconstruction(sys_x):
    sys, x = sys_x
    block, _ = violated_slices(sys, x)
    total = np.zeros(sys.n)
    for i in range(sys.m):
        total = total + oracles.positive_slice(sys, i, x)
    assert np.allclose(column_sums(block), total, atol=1e-10)
    assert block.shape[0] == sum(oracles.residual(sys, i, x) > 0 for i in range(sys.m))


def test_vector_norm_matches_math():
    assert vector_norm(np.array([3.0, 4.0])) == 5.0


def test_vector_norm_rescales_outside_the_normal_range():
    assert vector_norm(np.zeros(3)) == 0.0
    assert vector_norm(np.array([1e-200])) == 1e-200
    assert vector_norm(np.array([3e-170, 4e-170])) == pytest.approx(5e-170, rel=1e-15)
    assert vector_norm(np.array([3e200, 4e200])) == pytest.approx(5e200, rel=1e-15)
    assert vector_norm(np.array([1e308, 1e308])) == pytest.approx(math.sqrt(2) * 1e308)
    assert vector_norm(np.array([1.5e308, 1.5e308])) == math.inf
    assert math.isnan(vector_norm(np.array([math.nan, 1.0])))


@settings(max_examples=80)
@given(st.lists(st.floats(min_value=-1e100, max_value=1e100), min_size=1, max_size=6))
def test_vector_norm_keeps_its_bits_in_the_normal_range(values):
    v = np.array(values)
    s = math.fsum((v * v).tolist())
    if s >= 2.0 ** -1022:
        assert vector_norm(v) == math.sqrt(s)


@settings(max_examples=150)
@given(
    system_strategy(),
    st.lists(st.booleans(), min_size=5, max_size=5),
    st.floats(min_value=5e-324, max_value=1e300),
)
def test_membership_is_max_violation_below_eps(sys_x, nan_at, eps):
    """The solver decides membership from the trace's max violation; the two
    must agree for every eps > 0, also when residuals are NaN."""
    sys, x = sys_x
    x = np.where(np.array(nan_at[: sys.n]), math.nan, x)
    assert eps_membership(sys, x, eps) == (max_relative_violation(sys, x) < eps)
