import numpy as np
import pytest

from conftest import brute_force_feasible
from modap import (
    DynamicsSpec,
    InequalitySystem,
    ModelProblemSpec,
    SolveStatus,
    generate_model_problem,
    load_system,
    save_system,
    solve,
    SolverConfig,
)
from modap.geometry import eps_membership
from modap.harness import (
    METRICS_HEADER,
    ConfigError,
    ExperimentConfig,
    SystemFormatError,
    build_experiment_config,
    parse_config_file,
    parse_overrides,
    run_experiment,
    run_rate_sweep,
)


class TestModelProblem:
    def test_n2_default_rows(self):
        sys = generate_model_problem(ModelProblemSpec(n=2))
        expected_a = [
            [1.0, 0.0],
            [0.0, 1.0],
            [-1.0, 0.0],
            [0.0, -1.0],
            [1.0, 1.0],
            [-1.0, -1.0],
        ]
        expected_b = [200.0, 200.0, 0.0, 0.0, 300.0, -100.0]
        assert np.array_equal(sys.a, expected_a)
        assert np.array_equal(sys.b, expected_b)

    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_m_is_2n_plus_2(self, n):
        sys = generate_model_problem(ModelProblemSpec(n=n))
        assert sys.m == 2 * n + 2

    @pytest.mark.parametrize("n", [2, 5, 37, 120])
    def test_witness_strictly_interior_for_n_at_least_2(self, n):
        sys = generate_model_problem(ModelProblemSpec(n=n))
        w = np.full(n, 100.0)  # interior under the default bounds
        residuals = sys.a @ w - sys.b
        assert (residuals < 0).all()

    def test_witness_feasible_at_n1(self):
        # at n=1 the witness sits exactly on the lower sum bound, so it is
        # feasible but not strict there
        sys = generate_model_problem(ModelProblemSpec(n=1))
        assert eps_membership(sys, np.array([100.0]), 1e-9)

    def test_both_variants_converge_on_generator(self):
        for n in (5, 40):
            sys = generate_model_problem(ModelProblemSpec(n=n))
            for variant in ("ap", "modap"):
                out = solve(sys, SolverConfig(variant=variant, eps=1e-7,
                                              max_iterations=50_000))
                assert out.status is SolveStatus.CONVERGED
                assert brute_force_feasible(sys, out.solution, 1e-7)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            ModelProblemSpec(n=3, sum_lower=500.0, sum_upper=400.0)
        with pytest.raises(ValueError):
            ModelProblemSpec(n=3, box_upper=-1.0)
        with pytest.raises(ValueError):
            ModelProblemSpec(n=2, box_upper=10.0, sum_lower=100.0, sum_upper=400.0)


class TestSystemFiles:
    def test_round_trip_identity(self, tmp_path):
        sys = generate_model_problem(ModelProblemSpec(n=3))
        path = tmp_path / "sys.txt"
        save_system(sys, path)
        back = load_system(path)
        assert np.array_equal(back.a, sys.a)
        assert np.array_equal(back.b, sys.b)

    def test_round_trip_preserves_awkward_floats(self, tmp_path):
        sys = InequalitySystem(
            [[0.1, 1 / 3], [np.pi, -2.5e-17]], [1e300, -7e-12]
        )
        path = tmp_path / "sys.txt"
        save_system(sys, path)
        back = load_system(path)
        assert np.array_equal(back.a, sys.a)
        assert np.array_equal(back.b, sys.b)

    def test_declared_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0 1\n0 1 1\n1 1 2\n")
        with pytest.raises(SystemFormatError, match="m=2.*3"):
            load_system(path)

    def test_row_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1 0\n")
        with pytest.raises(SystemFormatError, match="row 0"):
            load_system(path)

    def test_zero_row_rejected_with_index(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0 1\n0 0 1\n")
        with pytest.raises(SystemFormatError, match="row 1.*non-zero"):
            load_system(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0 1\n")
        with pytest.raises(SystemFormatError, match="header"):
            load_system(path)

    @pytest.mark.parametrize("text,match", [
        ("1 1\n1_0 5\n", "row 0"),  # float() would read 10
        ("# my_box\n1 2\n1 1\n-1 0_0\n", "row 1"),
        ("1_0 1\n" + "1 " * 10 + "5\n", "header"),
    ])
    def test_digit_separators_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(SystemFormatError, match=f"{match} has a non-numeric value"):
            load_system(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("# box\n\n1 1\n2.0 4.0  # row 0\n")
        sys = load_system(path)
        assert np.array_equal(sys.a, [[2.0]])
        assert np.array_equal(sys.b, [4.0])


class TestConfig:
    def test_parse_and_build(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            """
# experiment
problem.n = 12
solver.eps = 1e-6
solver.lambda = 0.5
solver.variant = ap
engine.workers = 3
dynamics.mode = translation
dynamics.rate = 2.5
dynamics.seconds_per_iteration = 0.05
output.path = out.csv
"""
        )
        cfg = build_experiment_config(parse_config_file(path))
        assert cfg.problem.n == 12
        assert cfg.solver.eps == 1e-6
        assert cfg.solver.step_length == 0.5
        assert cfg.solver.variant == "ap"
        assert cfg.engine.workers == 3
        assert cfg.dynamics.mode == "translation"
        assert cfg.dynamics.rate == 2.5
        assert cfg.output_path == "out.csv"

    def test_defaults_when_empty(self):
        cfg = build_experiment_config({})
        assert cfg.problem.n == 10
        assert cfg.solver.eps == 1e-7
        assert cfg.engine is None  # sequential by default
        assert cfg.dynamics.mode == "stationary"

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="solver.epsilon"):
            build_experiment_config({"solver.epsilon": "1e-7"})

    def test_bad_value_named_in_error(self):
        with pytest.raises(ConfigError, match="solver.eps"):
            build_experiment_config({"solver.eps": "tiny"})

    def test_overrides_parser(self):
        vals = parse_overrides(["solver.eps=1e-9", "engine.workers=2"])
        assert vals == {"solver.eps": "1e-9", "engine.workers": "2"}
        with pytest.raises(ConfigError):
            parse_overrides(["solver.eps"])

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("solver.eps 1e-7\n")
        with pytest.raises(ConfigError, match="exp.cfg:1"):
            parse_config_file(path)


class TestRunExperiment:
    def test_stationary_parallel_run(self, tmp_path):
        cfg = build_experiment_config(
            {"problem.n": "10", "engine.workers": "2", "solver.variant": "modap"}
        )
        outcome, path = run_experiment(cfg, tmp_path / "m.csv")
        assert outcome.status is SolveStatus.CONVERGED
        sys = generate_model_problem(cfg.problem)
        assert brute_force_feasible(sys, outcome.solution, cfg.solver.eps)
        text = path.read_text()
        assert text.startswith(METRICS_HEADER)

    def test_metrics_rows_match_iterations_and_final_violation(self, tmp_path):
        cfg = build_experiment_config({"problem.n": "10"})
        outcome, path = run_experiment(cfg, tmp_path / "m.csv")
        lines = path.read_text().splitlines()
        data = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data) == outcome.iterations
        final_violation = float(data[-1].split(",")[3])
        assert final_violation < cfg.solver.eps * (1 + 1e-9)
        iters = [int(l.split(",")[0]) for l in data]
        assert iters == sorted(set(iters))

    def test_translation_rate_zero_matches_stationary_bytes(self, tmp_path):
        base = {"problem.n": "8", "solver.variant": "modap"}
        cfg_still = build_experiment_config({**base, "dynamics.mode": "stationary"})
        cfg_zero = build_experiment_config(
            {**base, "dynamics.mode": "translation", "dynamics.rate": "0"}
        )
        _, p1 = run_experiment(cfg_still, tmp_path / "still.csv")
        _, p2 = run_experiment(cfg_zero, tmp_path / "zero.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_system_file_input(self, tmp_path):
        sys = generate_model_problem(ModelProblemSpec(n=6))
        sys_path = tmp_path / "sys.txt"
        save_system(sys, sys_path)
        cfg = build_experiment_config({"problem.file": str(sys_path)})
        outcome, _ = run_experiment(cfg, tmp_path / "m.csv")
        assert outcome.status is SolveStatus.CONVERGED

    def test_wall_clock_fills_wall_column(self, tmp_path):
        cfg = build_experiment_config(
            {"problem.n": "6", "dynamics.clock": "wall"}
        )
        _, path = run_experiment(cfg, tmp_path / "m.csv")
        data = [
            l for l in path.read_text().splitlines()[1:] if not l.startswith("#")
        ]
        assert all(l.split(",")[5] != "" for l in data)

    def test_virtual_clock_leaves_wall_column_empty(self, tmp_path):
        cfg = build_experiment_config({"problem.n": "6"})
        _, path = run_experiment(cfg, tmp_path / "m.csv")
        data = [
            l for l in path.read_text().splitlines()[1:] if not l.startswith("#")
        ]
        assert all(l.split(",")[5] == "" for l in data)


class TestRateSweep:
    def test_threshold_exists_and_files_written(self, tmp_path):
        cfg = build_experiment_config(
            {
                "problem.n": "10",
                "solver.variant": "modap",
                "solver.lambda": "1.0",
                "solver.max_iterations": "3000",
                "dynamics.seconds_per_iteration": "0.01",
            }
        )
        rates = [0.5, 2.0, 8.0, 32.0, 128.0]
        results = run_rate_sweep(cfg, rates, tmp_path / "sweep")
        statuses = {rate: out.status for rate, out in results}
        converged = [r for r in rates if statuses[r] is SolveStatus.CONVERGED]
        exhausted = [r for r in rates if statuses[r] is SolveStatus.BUDGET_EXHAUSTED]
        assert converged and exhausted
        assert max(converged) < min(exhausted)
        summary = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
        assert summary[0] == "rate,status,iterations"
        assert len(summary) == 1 + len(rates)
        assert (tmp_path / "sweep" / "rate_0.5.csv").exists()
        assert (tmp_path / "sweep" / "rate_128.0.csv").exists()

    def test_empty_rate_list_rejected(self, tmp_path):
        cfg = build_experiment_config({})
        with pytest.raises(ConfigError):
            run_rate_sweep(cfg, [], tmp_path / "sweep")
