import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_feasible_system
from modap import (
    DynamicsSpec,
    DynamicSystemSource,
    InequalitySystem,
    SolverConfig,
    solve,
)
from modap.dynamics import translate
from modap.geometry import eps_membership, violated_slices

HALF = InequalitySystem([[1.0, 0.0]], [1.0])


class TestTranslate:
    def test_hand_value(self):
        moved = translate(HALF, [0.5, 0.0])
        assert np.array_equal(moved.b, [1.5])
        assert moved.a is HALF.a

    def test_zero_is_identity(self):
        moved = translate(HALF, [0.0, 0.0])
        assert np.array_equal(moved.b, HALF.b)

    def test_lower_bound_row(self):
        # x1 >= 0 translated by +2 becomes x1 >= 2, i.e. -x1 <= -2
        sys = InequalitySystem([[-1.0, 0.0]], [0.0])
        moved = translate(sys, [2.0, 0.0])
        assert np.array_equal(moved.b, [-2.0])
        # membership transports: x in M  <=>  x + v in M'
        x = np.array([-1.0, 0.0])
        assert not eps_membership(sys, x, 1e-9)
        assert not eps_membership(moved, x + [2.0, 0.0], 1e-9)
        y = np.array([3.0, 0.0])
        assert eps_membership(sys, y, 1e-9)
        assert eps_membership(moved, y + [2.0, 0.0], 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            translate(HALF, [1.0, 2.0, 3.0])

    @settings(max_examples=40)
    @given(st.integers(2, 6), st.integers(0, 2**31 - 1))
    def test_membership_transport_random(self, n, seed):
        rng = np.random.default_rng(seed)
        sys, _ = random_feasible_system(rng, n, 2 * n + 1, margin_lo=0.5, margin_hi=3.0)
        x = rng.uniform(-10, 10, n)
        v = rng.uniform(-5, 5, n)
        eps = 1e-7
        # skip points that sit within 2 eps of a boundary of either system
        margins = np.abs(sys.a @ x - sys.b) / sys.row_norms
        moved = translate(sys, v)
        margins2 = np.abs(moved.a @ (x + v) - moved.b) / moved.row_norms
        if min(margins.min(), margins2.min()) <= 2 * eps:
            return
        assert eps_membership(sys, x, eps) == eps_membership(moved, x + v, eps)


class TestAdvance:
    def test_stationary_never_changes(self):
        src = DynamicSystemSource(HALF, DynamicsSpec(mode="stationary", rate=5.0))
        before = src.snapshot()
        src.advance(10.0)
        assert src.snapshot() is before
        assert src.current_time == 10.0

    def test_hand_displacement(self):
        box = InequalitySystem([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        src = DynamicSystemSource(
            box, DynamicsSpec(mode="translation", rate=10.0, seconds_per_iteration=0.1)
        )
        src.advance(src.next_elapsed())
        assert np.array_equal(src.snapshot().b, [2.0, 2.0])
        assert np.array_equal(src.cumulative_displacement, [1.0, 1.0])

    def test_additivity(self):
        spec = DynamicsSpec(mode="translation", rate=3.0)
        one = DynamicSystemSource(HALF, spec)
        two = DynamicSystemSource(HALF, spec)
        one.advance(0.1)
        two.advance(0.05)
        two.advance(0.05)
        assert np.allclose(one.snapshot().b, two.snapshot().b, atol=1e-12, rtol=1e-12)

    def test_negative_elapsed_rejected(self):
        src = DynamicSystemSource(HALF, DynamicsSpec())
        with pytest.raises(ValueError):
            src.advance(-0.1)

    def test_rows_never_change(self):
        src = DynamicSystemSource(
            HALF, DynamicsSpec(mode="translation", rate=2.0)
        )
        for _ in range(5):
            src.advance(0.3)
            assert src.snapshot().a is HALF.a

    def test_custom_direction_preserves_total_speed(self):
        sys = InequalitySystem(np.eye(3), np.ones(3))
        rate = 2.0
        default = DynamicSystemSource(
            sys, DynamicsSpec(mode="translation", rate=rate)
        )
        default.advance(1.0)
        expected_speed = rate * np.sqrt(3)
        assert np.linalg.norm(default.cumulative_displacement) == pytest.approx(expected_speed)


class TestSnapshot:
    def test_fresh_source_returns_base(self):
        src = DynamicSystemSource(HALF, DynamicsSpec(mode="translation", rate=1.0))
        assert src.snapshot() is HALF

    def test_advance_zero_keeps_values(self):
        src = DynamicSystemSource(HALF, DynamicsSpec(mode="translation", rate=1.0))
        src.advance(0.0)
        assert np.array_equal(src.snapshot().b, HALF.b)

    def test_snapshot_matches_direct_translate(self):
        src = DynamicSystemSource(HALF, DynamicsSpec(mode="translation", rate=2.0))
        src.advance(0.25)
        src.advance(0.75)
        v = src.cumulative_displacement
        expected = translate(HALF, v)
        assert np.array_equal(src.snapshot().b, expected.b)


def test_translation_rate_zero_equals_stationary(rng):
    sys, _ = random_feasible_system(rng, 6, 14)
    cfg = SolverConfig(variant="modap", record_iterates=True)
    still = solve(DynamicSystemSource(sys, DynamicsSpec(mode="stationary")), cfg)
    moving = solve(
        DynamicSystemSource(sys, DynamicsSpec(mode="translation", rate=0.0)), cfg
    )
    assert still.iterations == moving.iterations
    assert all(np.array_equal(a, b) for a, b in zip(still.iterates, moving.iterates))


def test_spec_rejects_non_finite():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="rate must be finite"):
            DynamicsSpec(mode="translation", rate=value)
    with pytest.raises(ValueError, match="seconds_per_iteration"):
        DynamicsSpec(seconds_per_iteration=math.inf)
    with pytest.raises(ValueError, match="displacement must be finite"):
        translate(HALF, [math.nan, 0.0])


def test_translated_bounds_match_the_eager_translation():
    sys = InequalitySystem([[1.0, 1e-17], [3.0, -1.0]], [1.0, 0.5])
    v = np.array([0.1, 1e17])
    want = oracles.translate(sys, v).b
    moved = translate(sys, v)
    # row by row on demand in a pass that evaluates both rows exactly, then
    # the whole vector on first read
    x = np.array([1.0, -1e17])
    assert [d.tobytes() for d in violated_slices(moved, x)[0]] == [
        d.tobytes() for d in oracles.violated_slices(oracles.translate(sys, v), x)]
    assert moved._b is None
    assert moved.b.tobytes() == want.tobytes()
    twice = translate(moved, v)
    assert twice.b.tobytes() == oracles.translate(oracles.translate(sys, v), v).b.tobytes()


def test_spec_validation():
    with pytest.raises(ValueError):
        DynamicsSpec(mode="spin")
    with pytest.raises(ValueError):
        DynamicsSpec(clock="sundial")
    with pytest.raises(ValueError):
        DynamicsSpec(seconds_per_iteration=0.0)
