import math

import numpy as np
import pytest

import oracles
from conftest import brute_force_feasible, one_iteration, random_feasible_system
import modap.solver as solver
from modap import (
    DynamicsSpec,
    DynamicSystemSource,
    EngineConfig,
    InequalitySystem,
    ModelProblemSpec,
    SolverConfig,
    SolveStatus,
    generate_model_problem,
    run_parallel,
    solve,
)
from modap.geometry import violated_slices
from modap.summation import SMALL_BLOCK, column_sums

BOX = InequalitySystem([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
HALF = InequalitySystem([[1.0, 0.0]], [1.0])


def step(sys, x, variant, step_length=1.0):
    """The solver's first step from x and its violated count h; a feasible
    start takes no step."""
    out = one_iteration(sys, x, variant, step_length)
    return out.solution, out.trace[0].h if out.iterations else 0


class TestSteps:
    def test_ap_single_row_lands_on_hyperplane(self):
        x_next, h = step(HALF, [3.0, 0.0], "ap")
        assert h == 1
        assert np.array_equal(x_next, [1.0, 0.0])

    def test_ap_feasible_identity(self):
        x_next, h = step(HALF, [0.0, 0.0], "ap")
        assert h == 0
        assert np.array_equal(x_next, [0.0, 0.0])

    def test_ap_two_rows_hand_value(self):
        x_next, h = step(BOX, [3.0, 2.0], "ap")
        assert h == 2
        assert np.array_equal(x_next, [2.0, 1.5])

    def test_modap_single_row(self):
        x_next, h = step(HALF, [3.0, 0.0], "modap", 0.5)
        assert h == 1
        assert np.array_equal(x_next, [2.5, 0.0])

    def test_modap_feasible_identity(self):
        x_next, h = step(BOX, [0.5, 0.5], "modap")
        assert h == 0
        assert np.array_equal(x_next, [0.5, 0.5])

    def test_modap_two_rows_frozen_value(self):
        # oracle: phi = (1, 0.5); x - phi/||phi|| computed with plain math
        norm = math.sqrt(1.0**2 + 0.5**2)
        expected = [3.0 - 1.0 / norm, 2.0 - 0.5 / norm]
        x_next, h = step(BOX, [3.0, 2.0], "modap")
        assert h == 2
        assert x_next == pytest.approx(expected, rel=1e-12)
        assert x_next == pytest.approx([2.1056, 1.5528], abs=1e-4)

    def test_modap_step_length_is_exact_length(self):
        x = np.array([3.0, 2.0])
        for lam in (0.25, 1.0, 2.0):
            x_next, h = step(BOX, x, "modap", lam)
            assert h == 2
            assert np.linalg.norm(x_next - x) == pytest.approx(lam, rel=1e-12)


class TestMapReduce:
    """The map and reduce of the paper's list formulation, on the rows of
    the one pass: the violated rows' slices, then their column sums."""

    def test_map_stage_hand_values(self):
        block, _ = violated_slices(BOX, np.array([3.0, 2.0]))
        assert np.array_equal(block, [[2.0, 0.0], [0.0, 1.0]])

    def test_map_stage_feasible_all_zero(self):
        block, _ = violated_slices(BOX, np.zeros(2))
        assert block.shape == (0, 2)

    def test_map_stage_singleton_matches_positive_slice(self):
        x = np.array([3.0, 4.0])
        block, _ = violated_slices(HALF, x)
        assert block.shape == (1, 2)
        assert np.array_equal(block[0], oracles.positive_slice(HALF, 0, x))

    def test_reduce_stage_hand_sum(self):
        block, _ = violated_slices(BOX, np.array([3.0, 2.0]))
        assert block.shape[0] == 2
        assert np.array_equal(column_sums(block), [2.0, 1.0])

    def test_reduce_stage_all_zero(self):
        block, _ = violated_slices(BOX, np.zeros(2))
        assert block.shape[0] == 0
        assert np.array_equal(column_sums(block), [0.0, 0.0])

    def test_reduce_stage_singleton_identity(self):
        block, _ = violated_slices(HALF, np.array([3.0, 0.0]))
        assert np.array_equal(column_sums(block), block[0])
        assert block.shape[0] == 1

    def test_list_formulation_equals_direct_formula(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(1, 20))
            sys, _ = random_feasible_system(rng, n, m)
            x = rng.uniform(-10, 10, n)
            slices = [oracles.positive_slice(sys, i, x) for i in range(m)
                      if oracles.residual(sys, i, x) > 0]
            h = len(slices)
            block, _ = violated_slices(sys, x)
            assert h == block.shape[0]
            if h > 0:
                y = sum(slices, np.zeros(n))
                assert np.allclose(y / h, column_sums(block) / h, atol=1e-12, rtol=1e-12)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, True, 0])
    def test_max_iterations_must_be_an_integer_of_at_least_one(self, value):
        # 2.5 used to run 3 iterations, and nan never ends the loop's count
        with pytest.raises(ValueError, match="max_iterations must be an integer >= 1"):
            SolverConfig(max_iterations=value)

    def test_max_iterations_takes_any_integral(self):
        out = solve(BOX, SolverConfig(max_iterations=np.int64(5), initial_point=[9.0, 9.0]))
        assert out.iterations <= 5

    def test_non_finite_initial_point_rejected(self):
        # [nan, 0] used to converge in 0 iterations
        for point in ([math.nan, 0.0], [math.inf, 0.0]):
            with pytest.raises(ValueError, match="initial point must be finite"):
                solve(BOX, SolverConfig(initial_point=point))


def test_tiny_direction_still_steps():
    # the slice sum [1e-200] squares to 0; its norm must not
    x_next, h = step(InequalitySystem([[1.0]], [-1e-200]), [0.0], "modap")
    assert h == 1
    assert np.array_equal(x_next, [-1.0])


# at x = 0 the slice of row [1e-150] is (1e300 / 1e-300) * 1e-150, which
# overflows to inf; the step then ends at -inf (ap) or nan (modap), a point
# that every row's membership test used to accept as converged
OVERFLOWING_SLICE = InequalitySystem([[1e-150], [1.0]], [-1e300, 5.0])


@pytest.mark.parametrize("variant", ["ap", "modap"])
def test_non_finite_iterate_is_an_error(variant):
    with pytest.raises(ValueError, match="iteration 1 .* not finite"):
        solve(OVERFLOWING_SLICE, SolverConfig(variant=variant))


def _translating_model(n):
    return DynamicSystemSource(generate_model_problem(ModelProblemSpec(n=n)),
                               DynamicsSpec(mode="translation", rate=1.0))


@pytest.mark.parametrize("variant", ["ap", "modap"])
@pytest.mark.parametrize("workers,record_trace", [(0, True), (0, False), (2, True), (2, False)])
def test_the_per_vector_norm_oracle_reproduces_a_solve(monkeypatch, variant, workers,
                                                      record_trace):
    # n = 300: the stacked step and direction (600 squares) take the block
    # levels of row_sums, a single vector math.fsum; ap never converges on
    # a moving region, so it runs out of a small budget
    def run():
        config = SolverConfig(variant=variant, max_iterations=12,
                              record_trace=record_trace, record_iterates=True)
        if workers:
            return run_parallel(_translating_model(300), config, EngineConfig(workers=workers))
        return solve(_translating_model(300), config)

    assert 300 < SMALL_BLOCK <= 600
    fast = run()
    monkeypatch.setattr(solver, "vector_norms", oracles.vector_norms)
    exact = run()

    assert fast.status is exact.status
    assert fast.iterations == exact.iterations > 0
    assert [p.tobytes() for p in fast.iterates] == [p.tobytes() for p in exact.iterates]
    if record_trace:
        fields = ("k", "h", "step_norm", "max_violation", "virtual_time")
        assert [[getattr(r, f) for f in fields] for r in fast.trace] == [
            [getattr(r, f) for f in fields] for r in exact.trace
        ]
        assert all(type(r.step_norm) is float for r in fast.trace)


def test_a_traced_modap_solve_takes_one_norm_sum_per_row_pass(monkeypatch):
    stacks = []
    real = solver.vector_norms

    def vector_norms(vs):
        stacks.append(len(vs))
        return real(vs)

    monkeypatch.setattr(solver, "vector_norms", vector_norms)
    out = solve(_translating_model(700), SolverConfig(record_trace=True))
    assert out.converged and out.iterations >= 3
    # the first pass's direction alone, then each step's norm stacked with
    # the next direction's, and the last step's alone: one call per pass
    assert stacks == [1] + [2] * (out.iterations - 1) + [1]
    stacks.clear()
    out = solve(_translating_model(700), SolverConfig())
    assert stacks == [1] * out.iterations  # untraced: the directions only
    stacks.clear()
    out = solve(_translating_model(700), SolverConfig(variant="ap", max_iterations=5))
    assert stacks == []  # nor does an untraced ap solve norm anything


@pytest.mark.parametrize("workers", [0, 2])
def test_a_model_solve_enters_one_error_state(monkeypatch, workers):
    # the benchmark's model-translate solve, sequential and in two row
    # blocks: 5 iterations, so 6 stacked norm sums, and one scope around
    # the whole loop, in which no row pass, superstep, norm sum or step
    # opens one
    entries = []

    class Counting(np.errstate):
        def __enter__(self):
            entries.append(None)
            return super().__enter__()

    source = DynamicSystemSource(generate_model_problem(ModelProblemSpec(n=1000)),
                                 DynamicsSpec(mode="translation", rate=1.0,
                                              seconds_per_iteration=0.01))
    monkeypatch.setattr(np, "errstate", Counting)
    config = SolverConfig(record_trace=True)
    if workers:
        out = run_parallel(source, config, EngineConfig(workers=workers))
    else:
        out = solve(source, config)
    assert out.iterations == 5
    assert len(entries) == 1


# x <= 0 and x >= 1: at x = 0.5 both rows are violated and their slices cancel
CONTRADICTION = InequalitySystem([[1.0], [-1.0]], [0.0, -1.0])


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("system,config,match", [
    (BOX, SolverConfig(initial_point=np.zeros(3)),
     r"initial point has shape \(3,\), expected \(2,\)"),
    # ROADMAP item 4's reproducer: an infeasible system is only seen when the
    # modap direction vanishes
    (CONTRADICTION, SolverConfig(variant="modap", initial_point=np.array([0.5])),
     "violation direction vanished although rows are violated"),
])
def test_loop_errors(system, config, match, workers):
    with pytest.raises(ValueError, match=match):
        if workers:
            run_parallel(system, config, EngineConfig(workers=workers))
        else:
            solve(system, config)
