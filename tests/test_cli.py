import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modap import generate_model_problem, load_system, ModelProblemSpec
from modap.cli import main
from modap.summation import FEW_ROWS, SMALL_BLOCK


def test_solve_exit_zero_and_metrics_written(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main(
        [
            "solve",
            "--set", "problem.n=8",
            "--set", f"output.path={out}",
            "--variant", "modap",
            "--workers", "2",
        ]
    )
    assert code == 0
    assert out.exists()
    assert "status=converged" in capsys.readouterr().out


def test_solve_exit_two_on_budget(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main(
        [
            "solve",
            "--set", "problem.n=8",
            "--set", f"output.path={out}",
            "--set", "dynamics.mode=translation",
            "--set", "dynamics.seconds_per_iteration=0.1",
            "--rate", "400",
            "--max-iter", "200",
        ]
    )
    assert code == 2
    assert "budget_exhausted" in capsys.readouterr().out


def test_error_exit_one(capsys):
    code = main(["solve", "--set", "solver.epsilon=1"])
    assert code == 1
    assert "solver.epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["generate", "--n", "0"], "n must be >= 1"),
    (["solve", "--workers", "-1"], "engine.workers must be >= 0"),
])
def test_bad_size_or_worker_count_exits_one(tmp_path, capsys, argv, message):
    out = tmp_path / "f.txt"
    argv = argv + (["--out", str(out)] if argv[0] == "generate"
                   else ["--set", "problem.n=2", "--set", f"output.path={out}"])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_generate_round_trip(tmp_path):
    path = tmp_path / "sys.txt"
    assert main(["generate", "--n", "4", "--out", str(path)]) == 0
    sys_file = load_system(path)
    direct = generate_model_problem(ModelProblemSpec(n=4))
    assert np.array_equal(sys_file.a, direct.a)
    assert np.array_equal(sys_file.b, direct.b)


def test_costmodel_csv(tmp_path, capsys):
    assert main(["costmodel", "--n", "100", "--tau-op", "1", "--tau-tr", "1",
                 "--latency", "1", "--m", "200"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("# assumed cost parameters")
    assert lines[1] == "n,m,c_s,c_map,c_a,c_r,c_p,c_u,t_s,t_map,t_r,t_a,t_p,k_max"
    fields = lines[2].split(",")
    assert fields[0] == "100"
    assert abs(float(fields[-1]) - 19.92) < 0.01


def test_costmodel_sweep_to_file(tmp_path):
    out = tmp_path / "cost.csv"
    assert main(["costmodel", "--n-values", "100,1000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 2  # comment, header, two rows


@pytest.mark.parametrize("argv", [
    ["costmodel", "--n-values", ","],
    ["costmodel", "--n-values", ""],
    ["costmodel", "--n-values", "10,x"],
    ["sweep", "--rates", " , "],
])
def test_bad_number_list_rejected(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert "list" in err and "error" in err


@pytest.mark.parametrize("argv", [
    ["costmodel", "--n-values", "100,,1000"],
    ["costmodel", "--n-values", "100,"],
    ["costmodel", "--n-values", ",100"],
    ["sweep", "--rates", "1, ,2"],
])
def test_blank_list_item_rejected(argv, capsys):
    # a blank item used to be dropped and the command to run on the rest
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert f"blank item in {'int' if argv[0] == 'costmodel' else 'float'} list {argv[2]!r}" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("flag", ["--tau-op", "--tau-tr", "--latency"])
@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_costmodel_rejects_a_constant_that_is_not_finite(flag, value, capsys):
    # --tau-op inf used to print k_max nan and --tau-tr inf k_max 0.0, exit 0
    assert main(["costmodel", "--n", "100", f"{flag}={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag[2:].replace('-', '_')} must be positive and finite" in captured.err


def test_sweep_command(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--set", "problem.n=10",
            "--set", "dynamics.seconds_per_iteration=0.01",
            "--set", "solver.max_iterations=2000",
            "--rates", "1,128",
            "--out-dir", str(tmp_path / "sw"),
        ]
    )
    # the fast rate exhausts the budget, so the command signals it
    assert code == 2
    assert (tmp_path / "sw" / "summary.csv").exists()
    out = capsys.readouterr().out
    assert "rate=1.0" in out and "rate=128.0" in out


@pytest.mark.parametrize("mode", [[], ["--set", "dynamics.mode=translation"]])
def test_sweep_rejects_a_given_rate(tmp_path, capsys, mode):
    # with a mode the sweep used to run rate 1 only and exit 0; without one
    # it failed with advice to set the mode that the sweep sets itself
    code = main(["sweep", "--set", "problem.n=5", *mode, "--rate", "5", "--rates", "1",
                 "--out-dir", str(tmp_path / "sw")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: modap sweep takes its rates from --rates, "
                            "not from --rate or dynamics.rate\n")
    assert not (tmp_path / "sw").exists()


def test_determinism_byte_identical_metrics(tmp_path):
    args = [
        "solve",
        "--set", "problem.n=9",
        "--set", "dynamics.mode=translation",
        "--set", "dynamics.rate=0.5",
        "--workers", "3",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--set", f"output.path={out1}"]) == 0
    assert main(args + ["--set", f"output.path={out2}"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _integer_system(path, n=40, m=120):
    """A dense system of small integers around the interior point (1, ..., 1):
    ``a_ij = (7 i + 13 j) mod 11 - 5`` and ``b_i = 3 sum_j a_ij + 2``."""
    lines = [f"{n} {m}"]
    for i in range(m):
        row = [(i * 7 + j * 13) % 11 - 5 for j in range(n)]
        lines.append(" ".join(str(c) for c in row + [3 * sum(row) + 2]))
    path.write_text("\n".join(lines) + "\n")
    return path


# SHA-256 of the virtual-clock metrics file; a change to the numeric
# kernels, the loop or the output format that moves one bit changes them
_TRANSLATING = ["--set", "problem.n=1000", "--set", "dynamics.mode=translation", "--rate", "1"]
_MODAP_TRANSLATING = "fc1c1bb0b57a3c027f5a5a2270050e7de632cbe102750a7489610925da2bfa04"


@pytest.mark.parametrize("args,from_file,digest,code", [
    (_TRANSLATING, False, _MODAP_TRANSLATING, 0),
    (_TRANSLATING + ["--workers", "3"], False, _MODAP_TRANSLATING, 0),
    # stationary: 891 iterations, each stepping from dozens of violated rows
    (["--variant", "ap", "--max-iter", "5000"], True,
     "0d10abafe94e7ece8725662e60c270594d57a6715fe0dca3b50e59dfe811bd4c", 0),
    # translating under the engine: 44-77 violated fully stored rows per
    # iteration, so every pass takes the translated exact path on a dense
    # block; the budget runs out (exit 2)
    (["--variant", "ap", "--max-iter", "300", "--set", "dynamics.mode=translation",
      "--rate", "0.01", "--workers", "2"], True,
     "eaa319fa104cdcc3bf7dcc43e6d1d796b312ff12bc49f4b62409f8a497ec4c84", 2),
])
def test_virtual_clock_metrics_keep_their_bytes(tmp_path, args, from_file, digest, code):
    out = tmp_path / "m.csv"
    if from_file:
        args = args + ["--set", f"problem.file={_integer_system(tmp_path / 'sys.txt')}"]
    assert main(["solve", *args, "--set", f"output.path={out}"]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_solve_from_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "m.csv"
    cfg.write_text(
        f"problem.n = 8\nsolver.variant = ap\noutput.path = {out}\n"
    )
    code = main(["solve", "--config", str(cfg), "--variant", "modap"])
    assert code == 0
    assert out.exists()
    # the flag beat the file: modap takes several fixed-length steps, ap one
    data = [
        l for l in out.read_text().splitlines()[1:] if not l.startswith("#")
    ]
    assert len(data) > 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "modap", "costmodel", "--n", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "k_max" in proc.stdout


@pytest.mark.parametrize("args,message", [
    (["solve", "--set", "bogus=1"], "error: unknown config key: bogus"),
    (["generate", "--n", "3"], "the following arguments are required: --out"),
])
def test_module_entry_point_exits_one_on_an_error(tmp_path, args, message):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "modap", *args], capture_output=True,
                          text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert message in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("args,message", [
    (["costmodel", "--n", "1" + "0" * 320],
     "cost model: c_s = 2^1063 or more is not a finite float64"),
    (["costmodel", "--m", "1" + "0" * 320],
     "cost model: c_map = 2^1075 or more is not a finite float64"),
    (["costmodel", "--n", "1000", "--tau-op", "1e308"],
     "cost model: t_map = inf is not a finite float64"),
    # a file that loads, whose two slices are inf and -inf; math.fsum's own
    # message used to reach the user as "error: -inf + inf in fsum"
    (["solve", "--set", "problem.file=s.txt", "--set", "output.path=m.csv"],
     "the sum of the violated rows' slices overflows float64"),
])
def test_a_result_past_float64_exits_one_without_a_traceback(tmp_path, args, message):
    (tmp_path / "s.txt").write_text("1 2\n1e-160 -1e10\n-1e-160 -1e10\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "modap", *args], capture_output=True,
                          text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""
    assert not (tmp_path / "m.csv").exists()


def test_sum_kernel_script_runs(tmp_path):
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "BENCH_summation.json"
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "sum_kernel.py"), "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert {"python", "numpy", "blas_threads"} <= record["machine"].keys()
    paths = {tuple(c["shape"]): c["path"] for c in record["workload_shapes"]}
    assert paths[(1, 100)] == "fsum" and paths[(1, 1000)] == "vectorised"
    assert paths[(243, 100)] == "vectorised"
    # the model problem's set-up squares: its two full rows, one block
    (squares,) = record["setup_shapes"]
    assert squares["shape"] == [2, 1000] and squares["path"] == "vectorised"
    assert record["crossover"]["small_block"] == SMALL_BLOCK
    assert [c["rows"] for c in record["rounded_rows"]][:2] == [1, 2]
    assert record["rounded_crossover"]["few_rows"] == FEW_ROWS


def test_ab_inprocess_script_runs_on_one_tree_twice():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "ab_inprocess.py"), "--base", str(root),
         "--head", str(root), "--workload", "model-translate", "--rounds", "2",
         "--solves", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(" (")[0] for line in lines[:2]] == ["round   1", "round   2"]
    assert "(base first)" in lines[0] and "(head first)" in lines[1]
    record = json.loads(lines[-1])
    assert record["workload"] == "model-translate" and record["iterations"] == 5
    assert record["rounds"] == 2 and 0 <= record["rounds_lower"] <= 2
    assert record["median_ratio"] > 0
    assert record["n"] == 1000 and record["base_median_ms"] > 0 and record["head_median_ms"] > 0


def test_ab_inprocess_setup_compares_the_loaded_systems():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "ab_inprocess.py"), "--base", str(root),
         "--head", str(root), "--setup", "--rounds", "1", "--solves", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["workload"] == "random-dense" and record["setup"] is True
    assert record["n"] == 100 and record["iterations"] is None and record["rounds"] == 1


def test_ab_inprocess_setup_compares_the_cached_thresholds(tmp_path):
    """The model set-up is compared too, down to the cached settle threshold:
    a base tree whose theta^d alone differs fails both set-ups."""
    root = Path(__file__).resolve().parents[1]
    script = [sys.executable, str(root / "scripts" / "ab_inprocess.py"), "--head", str(root),
              "--setup", "--rounds", "1", "--solves", "1"]
    proc = subprocess.run(script + ["--base", str(root), "--workload", "model-translate",
                                    "--n", "50"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["workload"] == "model-translate" and record["setup"] is True
    assert record["n"] == 50 and record["iterations"] is None

    source = (root / "src" / "modap" / "geometry.py").read_text()
    line = "self._floor_threshold = _D_OVER_C * kappa"
    assert line in source
    (tmp_path / "src").mkdir()
    shutil.copytree(root / "src" / "modap", tmp_path / "src" / "modap")
    (tmp_path / "src" / "modap" / "geometry.py").write_text(source.replace(line, line + " * 2.0"))
    for workload in (["--workload", "model-translate", "--n", "50"], []):
        proc = subprocess.run(script + ["--base", str(tmp_path)] + workload,
                              capture_output=True, text=True)
        assert proc.returncode == 1 and "set-up systems differ" in proc.stderr
    proc = subprocess.run(script + ["--base", str(root), "--workload", "model-workers2"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "--setup" in proc.stderr


def test_ab_inprocess_workers_sets_the_engines_row_blocks():
    root = Path(__file__).resolve().parents[1]
    script = [sys.executable, str(root / "scripts" / "ab_inprocess.py"), "--base", str(root),
              "--head", str(root), "--rounds", "1", "--solves", "1", "--n", "50"]
    proc = subprocess.run(script + ["--workload", "model-workers2", "--workers", "7"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["workload"] == "model-workers2" and record["workers"] == 7
    # K is the engine's alone; the sequential workload rejects it
    proc = subprocess.run(script + ["--workload", "model-translate", "--workers", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "--workers" in proc.stderr


def test_ab_inprocess_seed_seeds_the_random_dense_system():
    root = Path(__file__).resolve().parents[1]
    script = [sys.executable, str(root / "scripts" / "ab_inprocess.py"), "--base", str(root),
              "--head", str(root), "--rounds", "1", "--solves", "1"]
    runs = {}
    for seed in ([], ["--seed", "3"]):
        proc = subprocess.run(script + ["--workload", "random-dense"] + seed,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout.splitlines()[-1])
        runs[record["seed"]] = record["iterations"]
    assert runs == {11: 184, 3: 180}
    # the model problem has no seed
    proc = subprocess.run(script + ["--workload", "model-translate", "--seed", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "--seed" in proc.stderr


@functools.cache
def _workload_lines(*args):
    root = Path(__file__).resolve().parents[1]
    script = [sys.executable, str(root / "scripts" / "workload_lines.py")]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run(script + list(args), capture_output=True, text=True, env=env)


def test_fsum_fallback_counts_the_rows_left_to_fsum():
    records = []
    for args in (["--workload", "model-translate"], ["--workload", "model-workers2"],
                 ["--workload", "random-dense", "--seed", "3"]):
        proc = _workload_lines(*args)
        assert proc.returncode == 0, proc.stderr
        records.append(json.loads(proc.stdout))
    # the model problem's exact sums are all decided at level 1 or by a
    # one-column block; a random-dense solve leaves a few rows on midpoints
    for record in records[:2]:
        assert record["fallback_calls"] == record["fallback_rows"] == 0
        assert record["status"] == "converged" and record["iterations"] == 5
    dense = records[2]
    assert dense["seed"] == 3 and dense["iterations"] == 180
    assert 0 < dense["fallback_calls"] <= dense["fallback_rows"] < 180


def test_workload_lines_names_the_statements_a_solve_never_runs():
    root = Path(__file__).resolve().parents[1]
    proc = _workload_lines("--workload", "model-translate")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["status"] == "converged" and record["iterations"] == 5
    modules = record["modules"]
    assert set(modules) == {f"modap.{p.stem}" for p in (root / "src" / "modap").glob("*.py")}
    # the solve never reaches the CLI, nor eps_membership's guard, but its
    # loop norms every iteration and the import runs each module's defs
    cli = modules["modap.cli"]
    assert 0 < len(cli["unrun"]) == cli["statements"]
    source = (root / "src" / "modap" / "geometry.py").read_text().splitlines()
    lines = {text.strip(): i for i, text in enumerate(source, start=1)}
    unrun = set(modules["modap.geometry"]["unrun"])
    assert lines['raise ValueError(f"eps must be positive, got {eps}")'] in unrun
    assert lines["squares = vs * vs"] not in unrun
    assert lines["def vector_norms(vs: np.ndarray) -> list[float]:"] not in unrun
    assert all(source[i - 1].strip() and not source[i - 1].lstrip().startswith("#")
               for i in unrun)
    # a global declaration runs no line of its own, so it is not a statement line
    summation = (root / "src" / "modap" / "summation.py").read_text().splitlines()
    declared = [i for i, text in enumerate(summation, start=1)
                if text.strip().startswith("global ")]
    assert declared and not set(declared) & set(modules["modap.summation"]["unrun"])
    proc = _workload_lines("--seed", "3")
    assert proc.returncode == 2 and "--seed" in proc.stderr


def test_bad_arguments_exit_one():
    proc = subprocess.run(
        [sys.executable, "-m", "modap", "solve", "--variant", "fastest"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1


def test_rate_without_translation_exits_one(tmp_path, capsys):
    # a stationary solve used to drop the rate without a word and exit 0
    out = tmp_path / "m.csv"
    base = ["solve", "--set", "problem.n=5", "--set", f"output.path={out}"]
    for flags in (["--rate", "1000"],
                  ["--set", "dynamics.rate=2", "--set", "dynamics.mode=stationary"]):
        assert main(base + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "dynamics.rate" in err and "dynamics.mode" in err
    assert not out.exists()
    # a zero rate moves nothing in either mode
    assert main(base + ["--rate", "0"]) == 0


def test_shape_keys_with_a_problem_file_exit_one(tmp_path, capsys):
    # the file's system used to be solved and the shape keys dropped, exit 0
    path = tmp_path / "s.txt"
    assert main(["generate", "--n", "5", "--out", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "m.csv"
    code = main(["solve", "--set", f"problem.file={path}", "--set", "problem.n=50",
                 "--set", "problem.box_upper=3", "--set", f"output.path={out}"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: problem.n, problem.box_upper shape the generated "
                            "model problem, which problem.file replaces\n")
    assert not out.exists()


def test_sweep_rejects_a_stationary_mode(tmp_path, capsys):
    # the sweep used to translate anyway and exit 0
    code = main(["sweep", "--set", "problem.n=5", "--set", "dynamics.mode=stationary",
                 "--rates", "1", "--out-dir", str(tmp_path / "sw")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: modap sweep translates at each rate; it takes no "
                            "dynamics.mode = stationary\n")
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("key,value", [
    ("solver.variant", "x"),
    ("dynamics.mode", "spin"),
    ("dynamics.clock", "sundial"),
])
def test_bad_choice_in_config_exits_one(tmp_path, capsys, key, value):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "m.csv"
    cfg.write_text(f"problem.n = 4\n{key} = {value}\noutput.path = {out}\n")
    assert main(["solve", "--config", str(cfg)]) == 1
    assert repr(value) in capsys.readouterr().err
    assert not out.exists()


def test_generate_too_large_exits_one(tmp_path, capsys):
    # numpy refuses the 10**15-row allocation at once; no traceback
    out = tmp_path / "x.txt"
    assert main(["generate", "--n", str(10**15), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not out.exists()


def test_nan_system_file_exits_one(tmp_path, capsys):
    # printf '2 2\n1 0 nan\n0 1 1\n' used to end as status=converged iterations=0
    path = tmp_path / "s.txt"
    path.write_text("2 2\n1 0 nan\n0 1 1\n")
    out = tmp_path / "m.csv"
    code = main(["solve", "--set", f"problem.file={path}", "--set", f"output.path={out}"])
    assert code == 1
    assert "bound of row 0 is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_non_ascii_system_file_exits_one(tmp_path, capsys):
    # a non-ASCII byte used to end in a bare UnicodeDecodeError naming no file
    path = tmp_path / "s.txt"
    path.write_bytes(b"2 2\n1 0 1\n0 1 \xff\n")
    out = tmp_path / "m.csv"
    code = main(["solve", "--set", f"problem.file={path}", "--set", f"output.path={out}"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{path}: byte 14 (0xff) is not ASCII" in err and len(err.splitlines()) == 1
    assert not out.exists()

def test_non_finite_flags_exit_one(tmp_path, capsys):
    out = tmp_path / "m.csv"
    base = ["solve", "--set", "problem.n=4", "--set", f"output.path={out}"]
    for flags, message in [
        (["--rate", "nan", "--set", "dynamics.mode=translation"], "rate must be finite"),
        (["--lambda", "inf"], "step_length must be positive and finite"),
        (["--eps", "nan"], "eps must be positive and finite"),
    ]:
        assert main(base + flags) == 1
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_iterate_exits_one(tmp_path, capsys):
    # printf '1 1\n1e-150 -1e300\n' used to end as status=converged
    # iterations=1 at x = nan (modap) or -inf (ap)
    path = tmp_path / "s.txt"
    path.write_text("1 1\n1e-150 -1e300\n")
    out = tmp_path / "m.csv"
    for variant in ("ap", "modap"):
        code = main(["solve", "--set", f"problem.file={path}", "--set", f"output.path={out}",
                     "--variant", variant])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: iteration 1 ")
        assert "not finite" in err
    assert not out.exists()


def test_overflowing_slice_sum_exits_one(tmp_path, capsys):
    # both slices are finite, their first coordinates sum past float64;
    # the sum used to fail with "-inf + inf in fsum"
    path = tmp_path / "s.txt"
    path.write_text("2 2\n1 0 -1.6e308\n1 1e-300 -1.6e308\n")
    out = tmp_path / "m.csv"
    for workers in ("0", "2"):
        code = main(["solve", "--set", f"problem.file={path}", "--set", f"output.path={out}",
                     "--workers", workers])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "overflows float64" in err
    assert not out.exists()



TRANSLATING = ["dynamics.mode=translation", "dynamics.seconds_per_iteration=1"]
OVERFLOWS = [
    # the first step lands near x = (-5e299, -5e299), where row 1's two
    # finite products sum past float64
    ("1e-8 1e-8 -1e292\n3e8 3e8 1", ["solver.variant=ap"],
     "row 1: its residual overflows float64"),
    # the first step lands near x = (-5e294, -5e294), where row 1's products
    # overflow to inf and -inf, which math.fsum rejects with a ValueError
    ("1e-5 1e-5 -1e290\n1e20 -1e20 1", ["solver.variant=ap"],
     "row 1: its residual overflows float64"),
    # after one second row 0's bound is 1.5e308 + 1e308, past float64; it
    # used to read inf (status=converged) or, with the signs flipped, to
    # end as a non-finite step
    ("1 0 1.5e308\n0 1 -1", ["dynamics.rate=1e308", *TRANSLATING],
     "row 0: its translated bound overflows float64"),
    ("1 0 -1.5e308\n0 1 1", ["dynamics.rate=-1e308", *TRANSLATING],
     "row 0: its translated bound overflows float64"),
]


def test_overflowing_residual_exits_one(tmp_path, capsys):
    path = tmp_path / "s.txt"
    out = tmp_path / "m.csv"
    for system, settings, message in OVERFLOWS:
        path.write_text(f"2 2\n{system}\n")
        sets = [arg for key in settings for arg in ("--set", key)]
        # under --workers 2 the failing row's block raises the same error
        # as the sequential pass
        for workers in ("0", "2"):
            code = main(["solve", "--set", f"problem.file={path}",
                         "--set", f"output.path={out}", *sets, "--workers", workers])
            assert code == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
