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
    EngineConfig,
    InequalitySystem,
    SolverConfig,
    run_parallel,
    solve,
)
from modap.dynamics import as_source, translate
from modap.geometry import eps_membership, violated_slices

HALF = InequalitySystem([[1.0, 0.0]], [1.0])


class TestTranslate:
    def test_hand_value(self):
        moved = translate(HALF, [0.5, 0.0])
        assert np.array_equal(oracles.bounds(moved), [1.5])
        assert moved.system is HALF

    def test_zero_is_identity(self):
        moved = translate(HALF, [0.0, 0.0])
        assert np.array_equal(oracles.bounds(moved), HALF.b)

    def test_lower_bound_row(self):
        # x1 >= 0 translated by +2 becomes x1 >= 2, i.e. -x1 <= -2
        sys = InequalitySystem([[-1.0, 0.0]], [0.0])
        moved = translate(sys, [2.0, 0.0])
        assert np.array_equal(oracles.bounds(moved), [-2.0])
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
        margins2 = np.abs(sys.a @ (x + v) - oracles.bounds(moved)) / sys.row_norms
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
        assert np.array_equal(oracles.bounds(src.snapshot()), [2.0, 2.0])
        assert np.array_equal(src.cumulative_displacement, [1.0, 1.0])

    def test_additivity(self):
        spec = DynamicsSpec(mode="translation", rate=3.0)
        one = DynamicSystemSource(HALF, spec)
        two = DynamicSystemSource(HALF, spec)
        one.advance(0.1)
        two.advance(0.05)
        two.advance(0.05)
        assert np.allclose(oracles.bounds(one.snapshot()), oracles.bounds(two.snapshot()),
                           atol=1e-12, rtol=1e-12)

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
            assert src.snapshot().system is HALF

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
        assert np.array_equal(oracles.bounds(src.snapshot()), HALF.b)

    def test_snapshot_matches_direct_translate(self):
        src = DynamicSystemSource(HALF, DynamicsSpec(mode="translation", rate=2.0))
        src.advance(0.25)
        src.advance(0.75)
        v = src.cumulative_displacement
        expected = translate(HALF, v)
        assert np.array_equal(oracles.bounds(src.snapshot()), oracles.bounds(expected))


def test_translation_rate_zero_equals_stationary(rng):
    sys, _ = random_feasible_system(rng, 6, 14)
    cfg = SolverConfig(variant="modap", record_iterates=True)
    still = solve(DynamicSystemSource(sys, DynamicsSpec(mode="stationary")), cfg)
    moving = solve(
        DynamicSystemSource(sys, DynamicsSpec(mode="translation", rate=0.0)), cfg
    )
    assert still.iterations == moving.iterations
    assert all(np.array_equal(a, b) for a, b in zip(still.iterates, moving.iterates))


def test_a_translated_snapshot_solves_as_a_stationary_system(rng):
    sys, _ = random_feasible_system(rng, 6, 14)
    v = rng.uniform(-5, 5, 6)
    cfg = SolverConfig(variant="modap", record_iterates=True)
    want = solve(oracles.translate(sys, v), cfg)
    assert want.converged and want.iterations > 0
    for out in (solve(translate(sys, v), cfg),
                run_parallel(translate(sys, v), cfg, EngineConfig(workers=2))):
        assert out.iterations == want.iterations
        assert [p.tobytes() for p in out.iterates] == [p.tobytes() for p in want.iterates]


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
    moved = translate(sys, v)
    # row by row on demand in a pass that evaluates both rows exactly, which
    # leaves the snapshot as it was
    x = np.array([1.0, -1e17])
    assert [d.tobytes() for d in violated_slices(moved, x)[0]] == [
        d.tobytes() for d in oracles.violated_slices(oracles.translate(sys, v), x)]
    assert moved.system is sys and moved.shift.tobytes() == v.tobytes()


def test_translating_a_translated_snapshot_adds_the_shifts(rng):
    sys, _ = random_feasible_system(rng, 6, 14)
    v1, v2 = rng.uniform(-5, 5, 6), rng.uniform(-5, 5, 6) * 1e-9
    twice = translate(translate(sys, v1), v2)
    once = translate(sys, v1 + v2)
    assert twice.system is sys and twice.shift.tobytes() == once.shift.tobytes()
    for x in (np.zeros(6), rng.uniform(-10, 10, 6), -v1):
        got, want = violated_slices(twice, x), violated_slices(once, x)
        assert (got[0].tobytes(), got[1]) == (want[0].tobytes(), want[1])
    with pytest.raises(ValueError, match="displacement must be finite"):
        translate(translate(HALF, [1e308, 0.0]), [1e308, 0.0])


def test_a_translating_source_over_a_translated_base_builds_no_system(rng, monkeypatch):
    sys, _ = random_feasible_system(rng, 6, 14)
    source = DynamicSystemSource(translate(sys, np.zeros(6)),
                                 DynamicsSpec(mode="translation", rate=1.0))
    built = []
    init = InequalitySystem.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(InequalitySystem, "__init__", counting_init)
    out = solve(source, SolverConfig(variant="modap"))
    assert out.iterations > 0 and source.snapshot().system is sys
    assert not built


def test_spec_validation():
    with pytest.raises(ValueError):
        DynamicsSpec(mode="spin")
    with pytest.raises(ValueError):
        DynamicsSpec(clock="sundial")
    with pytest.raises(ValueError):
        DynamicsSpec(seconds_per_iteration=0.0)


@pytest.mark.parametrize("obj", [object(), np.eye(2), [[1.0, 0.0]]])
def test_as_source_rejects_what_is_not_a_system(obj):
    with pytest.raises(TypeError, match="expected a system or a DynamicSystemSource"):
        as_source(obj)
