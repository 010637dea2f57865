"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Each criterion enforces its stated tolerances and wall-clock budget.
"""

import functools
import math
import time

import numpy as np
import pytest

import oracles
from conftest import brute_force_feasible, one_iteration, random_feasible_system
from modap import (
    DynamicsSpec,
    DynamicSystemSource,
    EngineConfig,
    InequalitySystem,
    ModelProblemSpec,
    SolverConfig,
    SolveStatus,
    generate_model_problem,
    load_system,
    run_parallel,
    save_system,
    solve,
)
from modap.cli import main as cli_main
from modap.cost_model import BREADTH_FULL, CostParams, k_max
from modap.geometry import eps_membership, max_relative_violation, violated_slices
from modap.summation import column_sums
from test_cost_model import counted_map_ops_per_row


class _criterion:
    def __init__(self, num, name, budget_s):
        self.num = num
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(f"ACCEPTANCE {self.num} {self.name}: {status} ({elapsed:.2f} s)")
        if exc_type is None and elapsed >= self.budget_s:
            raise AssertionError(
                f"criterion {self.num} exceeded its {self.budget_s} s budget "
                f"({elapsed:.2f} s)"
            )
        return False


def test_criterion_1_operator_invariants():
    with _criterion(1, "operator invariants on 1000 random pairs", 5.0):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            m = int(rng.integers(1, 51))
            a = rng.normal(size=(m, n))
            norms = np.linalg.norm(a, axis=1)
            for i in np.nonzero(norms < 0.3)[0]:
                a[i, i % n] += 1.0
            b = rng.uniform(-5, 5, m)
            sys = InequalitySystem(a, b)
            x = rng.uniform(-5, 5, n)

            block, _ = violated_slices(sys, x)
            h = block.shape[0]
            total = np.zeros(n)
            slices = []
            for i in range(m):
                # projection lands on the hyperplane
                p = oracles.orthogonal_projection(sys, i, x)
                bi = float(sys.b[i])
                assert abs(float(np.dot(sys.a[i], p)) - bi) <= abs(bi) * 1e-12 + 1e-12
                # slice/flag equivalence
                s = oracles.positive_slice(sys, i, x)
                if oracles.residual(sys, i, x) > 0:
                    assert np.array_equal(s, oracles.reflection_vector(sys, i, x))
                    slices.append(s)
                else:
                    assert not s.any()
                total += s
            # the one pass returns exactly the violated rows' slices, in order
            assert h == len(slices)
            assert np.array_equal(block, np.array(slices).reshape(h, n))
            # phi reconstruction
            assert np.allclose(column_sums(block), total, atol=1e-10)
            # membership agrees with the row-by-row test exactly
            assert eps_membership(sys, x, 1e-7) == all(
                oracles.eps_satisfies(sys, i, x, 1e-7) for i in range(m)
            )
            # row scaling leaves decisions unchanged
            c = float(rng.uniform(0.01, 100.0))
            scaled = InequalitySystem(a * c, b * c)
            i = int(rng.integers(0, m))
            s1, s2 = oracles.positive_slice(sys, i, x), oracles.positive_slice(scaled, i, x)
            assert (oracles.residual(sys, i, x) > 0) == (oracles.residual(scaled, i, x) > 0)
            assert np.allclose(s1, s2, atol=1e-10, rtol=1e-10)
            assert (oracles.eps_satisfies(sys, i, x, 1e-7)
                    == oracles.eps_satisfies(scaled, i, x, 1e-7))
            assert max_relative_violation(sys, x) == pytest.approx(
                max_relative_violation(scaled, x), abs=1e-10, rel=1e-10
            )
            # the solver's fixed-length step has the requested length
            if h > 0:
                lam = float(rng.uniform(0.1, 5.0))
                out = one_iteration(sys, x, "modap", lam)
                assert out.trace[0].step_norm == pytest.approx(lam, rel=1e-12)


def test_criterion_2_list_formulation_equals_direct_formula():
    with _criterion(2, "per-row map/reduce equals the one row pass", 2.0):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 16))
            m = int(rng.integers(1, 41))
            sys, _ = random_feasible_system(rng, n, m)
            x = rng.uniform(-15, 15, n)
            slices = [oracles.positive_slice(sys, i, x) for i in range(m)
                      if oracles.residual(sys, i, x) > 0]
            y, h = sum(slices, np.zeros(n)), len(slices)
            block, _ = violated_slices(sys, x)
            assert h == block.shape[0]
            direction = column_sums(block)
            if h > 0:
                assert np.allclose(y / h, direction / h, atol=1e-12, rtol=1e-12)
            else:
                assert not y.any() and not direction.any()


@functools.cache
def _stationary_generator_runs():
    runs = {}
    for n in (10, 50, 200):
        spec = ModelProblemSpec(n=n)
        system = generate_model_problem(spec)
        for variant in ("ap", "modap"):
            out = solve(
                system,
                SolverConfig(
                    variant=variant,
                    eps=1e-7,
                    max_iterations=50_000,
                    record_iterates=True,
                ),
            )
            # (100, ..., 100) is interior under the default bounds
            runs[(variant, n)] = (system, np.full(n, 100.0), out)
    return runs


def test_criterion_3_stationary_convergence():
    with _criterion(3, "stationary convergence with brute-force check", 60.0):
        runs = _stationary_generator_runs()
        for (variant, n), (system, _, out) in runs.items():
            assert out.status is SolveStatus.CONVERGED, (variant, n)
            assert out.iterations <= 50_000
            assert brute_force_feasible(system, out.solution, 1e-7), (variant, n)


def test_criterion_4_fejer_monotonicity_of_ap():
    with _criterion(4, "Fejer monotonicity of ap toward the witness", 60.0):
        runs = _stationary_generator_runs()
        for n in (10, 50, 200):
            _, witness, out = runs[("ap", n)]
            dists = [np.linalg.norm(x - witness) for x in out.iterates]
            for before, after in zip(dists, dists[1:]):
                assert after <= before + 1e-10, n


def _parallel_instances():
    """20 instances: random and generator, stationary and translating."""
    rng = np.random.default_rng(5)
    instances = []
    for i in range(12):
        n = int(rng.integers(3, 16))
        m = int(rng.integers(9, 41))
        sys, _ = random_feasible_system(rng, n, m)
        instances.append((sys, DynamicsSpec(), "modap", 1.0))
    for i in range(4):
        n = int(rng.integers(3, 12))
        m = int(rng.integers(9, 30))
        sys, _ = random_feasible_system(rng, n, m)
        instances.append((sys, DynamicsSpec(), "ap", 1.0))
    for n, lam in ((4, 1.0), (10, 2.0)):
        instances.append(
            (generate_model_problem(ModelProblemSpec(n=n)), DynamicsSpec(), "modap", lam)
        )
    for rate, lam in ((0.5, 1.0), (2.0, 2.0)):
        instances.append(
            (
                generate_model_problem(ModelProblemSpec(n=10)),
                DynamicsSpec(mode="translation", rate=rate, seconds_per_iteration=0.05),
                "modap",
                lam,
            )
        )
    return instances


def test_criterion_5_parallel_bit_identity():
    with _criterion(5, "parallel iterates bit-identical for K in {1,2,4,8}", 30.0):
        instances = _parallel_instances()
        assert len(instances) == 20
        for sys, spec, variant, lam in instances:
            cfg = SolverConfig(
                variant=variant,
                step_length=lam,
                max_iterations=300,
                record_iterates=True,
            )
            seq = solve(DynamicSystemSource(sys, spec), cfg)
            for workers in (1, 2, 4, 8):
                par = run_parallel(
                    DynamicSystemSource(sys, spec),
                    cfg,
                    EngineConfig(workers=workers),
                )
                assert par.status == seq.status
                assert par.iterations == seq.iterations
                assert len(par.iterates) == len(seq.iterates)
                for a, b in zip(par.iterates, seq.iterates):
                    assert np.array_equal(a, b)


def _moving_generator_source(rate, quantum=0.1, n=10):
    system = generate_model_problem(ModelProblemSpec(n=n))
    spec = DynamicsSpec(mode="translation", rate=rate, seconds_per_iteration=quantum)
    return DynamicSystemSource(system, spec)


def test_criterion_6_moving_polytope_stall_and_rate_ordering():
    with _criterion(6, "decaying steps stall where fixed steps converge", 60.0):
        # displacement per iteration (0.316 normalized) far exceeds eps, so
        # the projection chase never closes the gap
        ap_out = solve(
            _moving_generator_source(rate=1.0),
            SolverConfig(variant="ap", eps=1e-7, max_iterations=20_000),
        )
        assert ap_out.status is SolveStatus.BUDGET_EXHAUSTED
        modap_out = solve(
            _moving_generator_source(rate=1.0),
            SolverConfig(variant="modap", step_length=1.0, eps=1e-7,
                         max_iterations=20_000),
        )
        assert modap_out.status is SolveStatus.CONVERGED

        rates = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        max_tolerated = {}
        for lam in (0.5, 1.0, 2.0):
            best = 0.0
            for rate in rates:
                out = solve(
                    _moving_generator_source(rate=rate),
                    SolverConfig(variant="modap", step_length=lam, eps=1e-7,
                                 max_iterations=3000),
                )
                if out.status is SolveStatus.CONVERGED:
                    best = max(best, rate)
            max_tolerated[lam] = best
        assert max_tolerated[0.5] > 0.0
        assert max_tolerated[0.5] <= max_tolerated[1.0] <= max_tolerated[2.0]
        # and larger step length genuinely buys something on this grid
        assert max_tolerated[2.0] > max_tolerated[0.5]


def test_criterion_7_cost_model_regimes():
    with _criterion(7, "cost model hand value and scaling regimes", 1.0):
        hand = CostParams(100, 200, tau_op=1.0, tau_tr=1.0, latency=1.0)
        assert k_max(hand) == pytest.approx(19.92, abs=0.01)

        lo = CostParams(10**5, 2 * 10**5)
        hi = CostParams(4 * 10**5, 8 * 10**5)
        assert k_max(hi) / k_max(lo) == pytest.approx(2.0, rel=0.03)

        full = CostParams(
            10**6, 2 * 10**6, tau_op=2.5e-10, tau_tr=2.5e-10,
            update_breadth=BREADTH_FULL,
        )
        assert k_max(full) == pytest.approx(math.sqrt(6), rel=0.01)


def test_criterion_8_instrumented_map_count():
    with _criterion(8, "instrumented map kernel count equals 5n+1", 1.0):
        rng = np.random.default_rng(8)
        for n in (3, 7):
            row = list(rng.normal(size=n))
            x = list(rng.normal(size=n))
            assert counted_map_ops_per_row(row, 1.25, x) == 5 * n + 1


def test_criterion_9_round_trip_and_determinism(tmp_path):
    with _criterion(9, "file round-trip and byte-identical metrics", 10.0):
        system = generate_model_problem(ModelProblemSpec(n=7))
        path = tmp_path / "sys.txt"
        save_system(system, path)
        back = load_system(path)
        assert np.array_equal(back.a, system.a)
        assert np.array_equal(back.b, system.b)

        args = [
            "solve",
            "--set", "problem.n=9",
            "--set", "dynamics.mode=translation",
            "--set", "dynamics.rate=1.5",
            "--workers", "4",
            "--variant", "modap",
        ]
        out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        assert cli_main(args + ["--set", f"output.path={out1}"]) == 0
        assert cli_main(args + ["--set", f"output.path={out2}"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
