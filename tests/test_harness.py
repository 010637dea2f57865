import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_feasible
from modap import (
    DynamicsSpec,
    EngineConfig,
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
    CONFIG_SCHEMA,
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

    def test_stores_only_its_4n_entries(self):
        sys = generate_model_problem(ModelProblemSpec(n=3))
        assert sys.indptr.tolist() == [0, 1, 2, 3, 4, 5, 6, 9, 12]
        assert sys.indices.tolist() == [0, 1, 2] * 4
        assert sys.data.tolist() == [1.0] * 3 + [-1.0] * 3 + [1.0] * 3 + [-1.0] * 3
        assert sys.indptr.dtype == sys.indices.dtype == np.intp

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

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError, match="^n must be an integer >= 1, got 0$"):
            ModelProblemSpec(n=0)

    @pytest.mark.parametrize("n", [True, 2.5, np.float64(3)])
    def test_a_dimension_that_is_not_a_count_is_rejected(self, n):
        # n = True used to build the n = 1 problem
        with pytest.raises(ValueError, match="^n must be an integer >= 1, got "):
            ModelProblemSpec(n=n)

    @pytest.mark.parametrize("box", [float("inf"), float("nan"), 0.0,
                                     pytest.param(10 ** 400, id="10**400")])
    def test_box_upper_must_be_positive_and_finite(self, box):
        with pytest.raises(ValueError, match="^box_upper must be positive and finite, got "):
            ModelProblemSpec(n=3, box_upper=box)

    @pytest.mark.parametrize("name,value", [("sum_upper", float("inf")),
                                            pytest.param("sum_upper", 10 ** 400,
                                                         id="sum_upper-10**400"),
                                            ("sum_lower", float("-inf")), ("sum_lower", True)])
    def test_a_sum_bound_must_be_a_finite_real(self, name, value):
        # sum_upper = inf used to pass here, and generate_model_problem then
        # blamed "bound of row 6"; sum_lower = True meant 1
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            ModelProblemSpec(n=3, **{name: value})


class TestSystemFiles:
    def test_round_trip_identity(self, tmp_path):
        sys = generate_model_problem(ModelProblemSpec(n=3))
        path = tmp_path / "sys.txt"
        save_system(sys, path)
        back = load_system(path)
        assert np.array_equal(back.a, sys.a)
        assert np.array_equal(back.b, sys.b)
        for name in ("indptr", "indices", "data", "b", "row_norms_sq"):
            assert getattr(back, name).tobytes() == getattr(sys, name).tobytes()

    def test_written_from_the_stored_rows(self, tmp_path):
        # a coefficient that is not stored is written 0.0, so -I has no -0.0
        path = tmp_path / "sys.txt"
        save_system(generate_model_problem(ModelProblemSpec(n=2)), path)
        assert path.read_text() == (
            "2 6\n1.0 0.0 200.0\n0.0 1.0 200.0\n-1.0 0.0 0.0\n0.0 -1.0 0.0\n"
            "1.0 1.0 300.0\n-1.0 -1.0 -100.0\n")
        # a -0.0 in a file is not stored either: the loaded rows are the same
        signed = tmp_path / "signed.txt"
        signed.write_text(path.read_text().replace("0.0 -1.0 0.0", "-0.0 -1.0 0.0"))
        back, again = load_system(path), load_system(signed)
        for name in ("indptr", "indices", "data", "b"):
            assert getattr(back, name).tobytes() == getattr(again, name).tobytes()

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

    def test_huge_header_fails_on_its_first_row_without_allocating(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1000000000000 1\n1 2\n")
        with pytest.raises(SystemFormatError, match="row 0 has 2 values"):
            load_system(path)

    @pytest.mark.parametrize("header", ["-1 1", "1 0"])
    def test_header_without_rows_or_columns_rejected(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n")
        with pytest.raises(SystemFormatError, match=f"bad.txt: header must declare n >= 1 "
                                                    f"and m >= 1, got '{header}'"):
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

    @pytest.mark.parametrize("text,match", [
        ("# only a comment\n\n", "bad.txt: empty system file"),
        ("2.5 1\n1 1 1\n", "bad.txt: non-integer header '2.5 1'"),
        ("1 1\nx 1\n", "bad.txt: row 0 has a non-numeric value"),
    ])
    def test_malformed_files_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(SystemFormatError, match=match):
            load_system(path)

    def test_non_ascii_byte_named_with_the_path(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"2 2\n1 0 1 # caf\xc3\xa9\n0 1 1\n")
        with pytest.raises(SystemFormatError, match=r"bad.txt: byte 15 \(0xc3\) is not ASCII"):
            load_system(path)

    @pytest.mark.parametrize("text", [
        "2 2\r\n1 0 1\r\n0 1 2\r\n",  # CRLF
        "2 2\r1 0 1\r0 1 2\r",  # CR alone
        "2 2\n1 0 1\n0 1 2",  # no newline after the last row
        "# box\n2 2\n\n1 0 1\n# between rows\n   \n0 1 2 # bound 2\n\n",
        "2 2\n1\t0 1\n0\f1\v2\n",  # \t, \f and \v separate values, as spaces do
    ])
    def test_line_endings_comments_and_separators(self, tmp_path, text):
        path = tmp_path / "sys.txt"
        path.write_bytes(text.encode("ascii"))
        sys = load_system(path)
        assert np.array_equal(sys.a, [[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(sys.b, [1.0, 2.0])

    def test_form_feed_does_not_end_a_line(self, tmp_path):
        # str.splitlines() breaks at \f and \v; the reader does not
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n1 1\f2 2\n")
        with pytest.raises(SystemFormatError, match="m=2 rows but the file contains 1"):
            load_system(path)

    def test_single_row(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("3 1\n1 -2 0 5\n")
        sys = load_system(path)
        assert sys.a.shape == (1, 3) and np.array_equal(sys.a, [[1.0, -2.0, 0.0]])
        assert np.array_equal(sys.b, [5.0])

    def test_header_without_rows_counts_zero_without_a_warning(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\n# no rows\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemFormatError,
                               match="bad.txt: header declares m=3 rows but the file contains 0"):
                load_system(path)

    @pytest.mark.parametrize("bad,match", [
        ("1 0", "row 2 has 2 values, expected n\\+1 = 3"),
        ("1 0 1 1", "row 2 has 4 values, expected n\\+1 = 3"),
        ("1 x 1", "row 2 has a non-numeric value"),
        ("1 0x10 1", "row 2 has a non-numeric value"),
    ])
    def test_bad_middle_row_named_by_its_data_row_index(self, tmp_path, bad, match):
        path = tmp_path / "bad.txt"
        path.write_text(f"# header\n2 4\n1 0 1\n# a\n\n# b\n0 1 1\n{bad}\n1 1 3\n")
        with pytest.raises(SystemFormatError, match=f"bad.txt: {match}$"):
            load_system(path)


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals and the smallest normals
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1.7976931348623155e308]),
)
_FORMATS = [repr, "%.17e".__mod__, "%.25e".__mod__, "%.3g".__mod__]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_loaded_values_have_the_bits_of_float(tmp_path_factory, data):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))

    def tokens(count, values):
        return [data.draw(st.sampled_from(_FORMATS))(v)
                for v in data.draw(st.lists(values, min_size=count, max_size=count))]

    # each row leads with 1 so that its norm neither overflows nor vanishes;
    # the drawn coefficients stay below 2^500, the drawn bounds do not
    coefficients = _FLOATS.filter(lambda v: abs(v) < 2.0**500)
    rows = [["1"] + tokens(n - 1, coefficients) + tokens(1, _FLOATS) for _ in range(m)]
    path = tmp_path_factory.mktemp("bits") / "sys.txt"
    path.write_text(f"{n} {m}\n" + "".join(" ".join(row) + "\n" for row in rows))
    bounds = np.array([float(row[-1]) for row in rows])
    if not np.isfinite(bounds).all():  # "%.3g" rounds 1.797e308 up to 1.8e+308
        with pytest.raises(SystemFormatError, match="not finite"):
            load_system(path)
        return
    sys = load_system(path)
    stored = [float(t) for row in rows for t in row[:-1] if float(t) != 0.0]
    assert sys.data.tobytes() == np.array(stored).tobytes()
    assert sys.b.tobytes() == bounds.tobytes()


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

    def test_negative_worker_count_rejected(self):
        with pytest.raises(ConfigError, match="^engine.workers must be >= 0, got -1$"):
            build_experiment_config({"engine.workers": "-1"})

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

    def test_schema_matches_readme_and_dataclasses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        paragraph = readme.split("Keys (all optional):", 1)[1].split("\n\n", 1)[0]
        assert set(re.findall(r"`([a-z_]+\.[a-z_]+)`", paragraph)) == set(CONFIG_SCHEMA)
        objects = {"problem": ModelProblemSpec, "solver": SolverConfig,
                   "engine": EngineConfig, "dynamics": DynamicsSpec,
                   "experiment": ExperimentConfig}
        for key, (obj, name, _) in CONFIG_SCHEMA.items():
            assert name in {f.name for f in fields(objects[obj])}, key


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

    @pytest.mark.parametrize("rates", [[1, 1.0], [2.0, 0.5, 2.0]])
    def test_a_repeated_rate_is_rejected(self, tmp_path, rates):
        # a rate's second run used to overwrite its first's rate_<r>.csv
        cfg = build_experiment_config({"problem.n": "3"})
        with pytest.raises(ConfigError, match=r"^rate [12]\.0 is given more than once$"):
            run_rate_sweep(cfg, rates, tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    def test_empty_rate_list_rejected(self, tmp_path):
        cfg = build_experiment_config({})
        with pytest.raises(ConfigError):
            run_rate_sweep(cfg, [], tmp_path / "sweep")
