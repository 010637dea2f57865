import math

import numpy as np
import pytest

from conftest import brute_force_feasible, random_feasible_system
from modap import (
    DynamicsSpec,
    DynamicSystemSource,
    InequalitySystem,
    SolverConfig,
    SolveStatus,
    ap_step,
    map_stage,
    modap_step,
    positive_slice,
    pseudo_projection,
    reduce_stage,
    solve,
)

BOX = InequalitySystem([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
HALF = InequalitySystem([[1.0, 0.0]], [1.0])


class TestSteps:
    def test_ap_single_row_lands_on_hyperplane(self):
        x_next, h = ap_step(HALF, [3.0, 0.0])
        assert h == 1
        assert np.array_equal(x_next, [1.0, 0.0])

    def test_ap_feasible_identity(self):
        x_next, h = ap_step(HALF, [0.0, 0.0])
        assert h == 0
        assert np.array_equal(x_next, [0.0, 0.0])

    def test_ap_two_rows_hand_value(self):
        x_next, h = ap_step(BOX, [3.0, 2.0])
        assert h == 2
        assert np.array_equal(x_next, [2.0, 1.5])

    def test_modap_single_row(self):
        x_next, h = modap_step(HALF, [3.0, 0.0], 0.5)
        assert h == 1
        assert np.array_equal(x_next, [2.5, 0.0])

    def test_modap_feasible_identity(self):
        x_next, h = modap_step(BOX, [0.5, 0.5], 1.0)
        assert h == 0
        assert np.array_equal(x_next, [0.5, 0.5])

    def test_modap_two_rows_frozen_value(self):
        # oracle: phi = (1, 0.5); x - phi/||phi|| computed with plain math
        norm = math.sqrt(1.0**2 + 0.5**2)
        expected = [3.0 - 1.0 / norm, 2.0 - 0.5 / norm]
        x_next, h = modap_step(BOX, [3.0, 2.0], 1.0)
        assert h == 2
        assert x_next == pytest.approx(expected, rel=1e-12)
        assert x_next == pytest.approx([2.1056, 1.5528], abs=1e-4)

    def test_modap_step_length_is_exact_length(self):
        x = np.array([3.0, 2.0])
        for lam in (0.25, 1.0, 2.0):
            x_next, h = modap_step(BOX, x, lam)
            assert h == 2
            assert np.linalg.norm(x_next - x) == pytest.approx(lam, rel=1e-12)


class TestMapReduce:
    def test_map_stage_hand_values(self):
        slices = map_stage(BOX, [3.0, 2.0])
        assert len(slices) == BOX.m
        assert np.array_equal(slices[0].direction, [2.0, 0.0])
        assert slices[0].violated == 1
        assert np.array_equal(slices[1].direction, [0.0, 1.0])
        assert slices[1].violated == 1

    def test_map_stage_feasible_all_zero(self):
        slices = map_stage(BOX, [0.0, 0.0])
        assert all(s.violated == 0 for s in slices)
        assert all(np.array_equal(s.direction, [0.0, 0.0]) for s in slices)

    def test_map_stage_singleton_matches_positive_slice(self):
        slices = map_stage(HALF, [3.0, 4.0])
        assert len(slices) == 1
        direct = positive_slice(HALF, 0, [3.0, 4.0])
        assert np.array_equal(slices[0].direction, direct.direction)
        assert slices[0].violated == direct.violated

    def test_reduce_stage_hand_sum(self):
        y, h = reduce_stage(map_stage(BOX, [3.0, 2.0]))
        assert h == 2
        assert np.array_equal(y, [2.0, 1.0])

    def test_reduce_stage_all_zero(self):
        y, h = reduce_stage(map_stage(BOX, [0.0, 0.0]))
        assert h == 0
        assert np.array_equal(y, [0.0, 0.0])

    def test_reduce_stage_singleton_identity(self):
        slices = map_stage(HALF, [3.0, 0.0])
        y, h = reduce_stage(slices)
        assert np.array_equal(y, slices[0].direction)
        assert h == slices[0].violated

    def test_reduce_stage_rejects_empty(self):
        with pytest.raises(ValueError):
            reduce_stage([])

    def test_list_formulation_equals_direct_formula(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(1, 20))
            sys, _ = random_feasible_system(rng, n, m)
            x = rng.uniform(-10, 10, n)
            y, h = reduce_stage(map_stage(sys, x))
            direction, h2 = pseudo_projection(sys, x)
            assert h == h2
            if h > 0:
                assert np.allclose(y / h, direction, atol=1e-12, rtol=1e-12)


class TestSolve:
    def test_feasible_start_converges_in_zero_steps(self):
        out = solve(HALF, SolverConfig(variant="ap"))
        assert out.status is SolveStatus.CONVERGED
        assert out.iterations == 0
        assert np.array_equal(out.solution, [0.0, 0.0])

    def test_single_hyperplane_ap_one_step(self):
        out = solve(HALF, SolverConfig(variant="ap", initial_point=[3.0, 0.0]))
        assert out.status is SolveStatus.CONVERGED
        assert out.iterations == 1
        assert np.array_equal(out.solution, [1.0, 0.0])

    def test_random_system_modap_converges_and_passes_brute_force(self, rng):
        sys, _ = random_feasible_system(rng, 10, 22)
        out = solve(sys, SolverConfig(variant="modap", step_length=1.0, eps=1e-7))
        assert out.status is SolveStatus.CONVERGED
        assert brute_force_feasible(sys, out.solution, 1e-7)

    def test_budget_exhaustion_is_a_status(self):
        # translation fast enough that the decaying-step variant stalls
        src = DynamicSystemSource(
            BOX,
            DynamicsSpec(mode="translation", rate=-10.0, seconds_per_iteration=0.1),
        )
        out = solve(src, SolverConfig(variant="ap", max_iterations=50,
                                      initial_point=[5.0, 5.0]))
        assert out.status is SolveStatus.BUDGET_EXHAUSTED
        assert out.iterations == 50

    def test_determinism_bit_identical_iterates(self, rng):
        sys, _ = random_feasible_system(rng, 6, 15)
        cfg = SolverConfig(variant="modap", record_iterates=True)
        out1 = solve(DynamicSystemSource(sys), cfg)
        out2 = solve(DynamicSystemSource(sys), cfg)
        assert out1.iterations == out2.iterations
        assert all(np.array_equal(a, b) for a, b in zip(out1.iterates, out2.iterates))

    def test_fejer_monotonicity_of_ap(self, rng):
        for _ in range(5):
            sys, witness = random_feasible_system(rng, 8, 18)
            out = solve(sys, SolverConfig(variant="ap", record_iterates=True,
                                          max_iterations=20_000))
            assert out.status is SolveStatus.CONVERGED
            dists = [np.linalg.norm(x - witness) for x in out.iterates]
            for before, after in zip(dists, dists[1:]):
                assert after <= before + 1e-10

    def test_modap_trace_step_norm_equals_step_length(self, rng):
        sys, _ = random_feasible_system(rng, 6, 14)
        lam = 0.7
        out = solve(sys, SolverConfig(variant="modap", step_length=lam,
                                      record_trace=True))
        assert out.status is SolveStatus.CONVERGED
        for rec in out.trace:
            assert rec.h > 0
            assert rec.step_norm == pytest.approx(lam, rel=1e-12)

    def test_stationary_source_equals_bare_system(self, rng):
        sys, _ = random_feasible_system(rng, 5, 12)
        cfg = SolverConfig(variant="modap", record_iterates=True)
        out_sys = solve(sys, cfg)
        out_src = solve(DynamicSystemSource(sys, DynamicsSpec()), cfg)
        assert out_sys.iterations == out_src.iterations
        assert all(
            np.array_equal(a, b) for a, b in zip(out_sys.iterates, out_src.iterates)
        )

    def test_trace_rows_match_iteration_count(self, rng):
        sys, _ = random_feasible_system(rng, 6, 14)
        out = solve(sys, SolverConfig(record_trace=True))
        assert len(out.trace) == out.iterations
        ks = [r.k for r in out.trace]
        assert ks == list(range(1, out.iterations + 1))


class TestSolverConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.0)
        with pytest.raises(ValueError):
            SolverConfig(step_length=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(variant="nope")
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)

    @pytest.mark.parametrize("field", ["eps", "step_length"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        # step_length=inf used to converge at [-inf, -inf]
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            SolverConfig(**{field: value})

    def test_non_finite_initial_point_rejected(self):
        # [nan, 0] used to converge in 0 iterations
        for point in ([math.nan, 0.0], [math.inf, 0.0]):
            with pytest.raises(ValueError, match="initial point must be finite"):
                solve(BOX, SolverConfig(initial_point=point))


def test_tiny_direction_still_steps():
    # the slice sum [1e-200] squares to 0; its norm must not
    x_next, h = modap_step(InequalitySystem([[1.0]], [-1e-200]), [0.0], 1.0)
    assert h == 1
    assert np.array_equal(x_next, [-1.0])
