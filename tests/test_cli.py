import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from modap import generate_model_problem, load_system, ModelProblemSpec
from modap.cli import main


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


def test_stall_comparison_script_runs():
    # the script imports from the package namespace, which no other test does
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "stall_comparison.py"),
         "--n", "3", "--budget", "50", "--rates", "0.1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("model problem n=3, quantum=0.1s, budget=50, lambda=1.0\n")


def test_bad_arguments_exit_one():
    proc = subprocess.run(
        [sys.executable, "-m", "modap", "solve", "--variant", "fastest"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1


def test_nan_system_file_exits_one(tmp_path, capsys):
    # printf '2 2\n1 0 nan\n0 1 1\n' used to end as status=converged iterations=0
    path = tmp_path / "s.txt"
    path.write_text("2 2\n1 0 nan\n0 1 1\n")
    out = tmp_path / "m.csv"
    code = main(["solve", "--set", f"problem.file={path}", "--set", f"output.path={out}"])
    assert code == 1
    assert "bound of row 0 is not finite" in capsys.readouterr().err
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
        for workers in ("0", "2"):
            code = main(["solve", "--set", f"problem.file={path}",
                         "--set", f"output.path={out}", *sets, "--workers", workers])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert message in err
        assert not out.exists()
