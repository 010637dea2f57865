"""Problem generation, config handling, experiment runs, metrics output.

The scalable model problem of dimension n is a box crossed with a slab:

    x_i <= box_upper            (n rows)
    -x_i <= 0                   (n rows)
    sum x_i <= sum_upper        (1 row)
    -sum x_i <= -sum_lower      (1 row)

so m = 2n + 2 and, under the defaults (box 200, slab [100, 100n + 100]),
the point (100, ..., 100) is an interior witness.  The two slab rows give
the region the vertex-like geometry that makes a translating feasible set
hard for decaying-step iterations.

File formats are plain text for diff-ability:
  * system files: a header line ``n m`` and then m data lines of n + 1
    floats (row coefficients then the bound); ``#`` starts a comment;
  * config files: ``key = value`` lines with dotted keys (see
    CONFIG_SCHEMA); ``#`` starts a comment;
  * metrics: CSV with a fixed header and trailing ``#`` summary lines.
    The wall_time column is filled only under the wall clock; under the
    virtual clock runs are machine-independent and the file is
    byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bsf_engine import EngineConfig, run_parallel
from .dynamics import (
    CLOCK_VIRTUAL,
    CLOCK_WALL,
    STATIONARY,
    TRANSLATION,
    DynamicsSpec,
    DynamicSystemSource,
)
from .geometry import InequalitySystem
from .solver import (
    VARIANT_AP,
    VARIANT_MODAP,
    IterationRecord,
    SolveOutcome,
    SolverConfig,
    solve,
)

__all__ = [
    "ModelProblemSpec",
    "ExperimentConfig",
    "ConfigError",
    "SystemFormatError",
    "generate_model_problem",
    "save_system",
    "load_system",
    "parse_config_file",
    "parse_overrides",
    "build_experiment_config",
    "run_experiment",
    "run_rate_sweep",
    "METRICS_HEADER",
]


class ConfigError(ValueError):
    """Bad configuration key or value."""


class SystemFormatError(ValueError):
    """Malformed system file."""


@dataclass
class ModelProblemSpec:
    """Shape of the generated box-plus-slab model problem."""

    n: int
    box_upper: float = 200.0
    sum_upper: float | None = None
    sum_lower: float = 100.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.sum_upper is None:
            self.sum_upper = 100.0 * self.n + 100.0
        if not self.box_upper > 0:
            raise ValueError(f"box_upper must be positive, got {self.box_upper}")
        if not self.sum_lower < self.sum_upper:
            raise ValueError(
                f"need sum_lower < sum_upper, got {self.sum_lower} >= {self.sum_upper}"
            )
        if self.sum_lower > self.n * self.box_upper:
            raise ValueError(
                "empty feasible region: sum_lower exceeds the box total "
                f"({self.sum_lower} > {self.n * self.box_upper})"
            )


def generate_model_problem(spec: ModelProblemSpec) -> InequalitySystem:
    """Instantiate the model family; always m = 2n + 2 rows."""
    n = spec.n
    # [I; -I; 1; -1], built in place: -I has -0.0 off its diagonal
    a = np.zeros((2 * n + 2, n))
    a[n:2 * n] = -0.0
    np.fill_diagonal(a[:n], 1.0)
    np.fill_diagonal(a[n:2 * n], -1.0)
    a[2 * n] = 1.0
    a[2 * n + 1] = -1.0
    b = np.concatenate(
        [
            np.full(n, spec.box_upper),
            np.zeros(n),
            [spec.sum_upper],
            [-spec.sum_lower],
        ]
    )
    return InequalitySystem(a, b)


@dataclass
class ExperimentConfig:
    """One experiment: problem, solver, engine, dynamics, output."""

    problem: ModelProblemSpec
    solver: SolverConfig
    engine: EngineConfig | None = None  # None = run the sequential engine
    dynamics: DynamicsSpec | None = None
    output_path: str = "metrics.csv"
    system_file: str | None = None

    def __post_init__(self):
        if self.dynamics is None:
            self.dynamics = DynamicsSpec()


# ---------------------------------------------------------------------------
# system files


def _format_float(v: float) -> str:
    return repr(float(v))


def save_system(sys: InequalitySystem, path) -> None:
    """Write a system file; floats use shortest round-trip formatting so
    load(save(sys)) reproduces the arrays exactly."""
    path = Path(path)
    lines = [f"{sys.n} {sys.m}"]
    for i in range(sys.m):
        parts = [_format_float(v) for v in sys.a[i]]
        parts.append(_format_float(sys.b[i]))
        lines.append(" ".join(parts))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def load_system(path) -> InequalitySystem:
    path = Path(path)
    data_lines = []
    for raw in path.read_text(encoding="ascii").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            data_lines.append(line)
    if not data_lines:
        raise SystemFormatError(f"{path}: empty system file")
    # float() and int() read "1_0" as 10; the file format has no digit separators
    if "_" in "".join(data_lines):
        i = next(i for i, line in enumerate(data_lines) if "_" in line)
        where = "the header" if i == 0 else f"row {i - 1}"
        raise SystemFormatError(f"{path}: {where} has a non-numeric value with '_'")
    header = data_lines[0].split()
    if len(header) != 2:
        raise SystemFormatError(
            f"{path}: header must be 'n m', got {data_lines[0]!r}"
        )
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise SystemFormatError(f"{path}: non-integer header {data_lines[0]!r}") from exc
    rows = data_lines[1:]
    if len(rows) != m:
        raise SystemFormatError(
            f"{path}: header declares m={m} rows but the file contains {len(rows)}"
        )
    a = np.empty((m, n))
    b = np.empty(m)
    for i, line in enumerate(rows):
        parts = line.split()
        if len(parts) != n + 1:
            raise SystemFormatError(
                f"{path}: row {i} has {len(parts)} values, expected n+1 = {n + 1}"
            )
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise SystemFormatError(f"{path}: row {i} has a non-numeric value") from exc
        a[i] = vals[:n]
        b[i] = vals[n]
    try:
        return InequalitySystem(a, b)
    except ValueError as exc:
        raise SystemFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# config files

def _parse_choice(*options: str):
    def cast(s: str) -> str:
        if s not in options:
            raise ValueError(f"expected one of {options}, got {s!r}")
        return s

    return cast


CONFIG_SCHEMA = {
    "problem.n": int,
    "problem.box_upper": float,
    "problem.sum_upper": float,
    "problem.sum_lower": float,
    "problem.file": str,
    "solver.eps": float,
    "solver.lambda": float,
    "solver.variant": _parse_choice(VARIANT_AP, VARIANT_MODAP),
    "solver.max_iterations": int,
    "engine.workers": int,
    "dynamics.mode": _parse_choice(STATIONARY, TRANSLATION),
    "dynamics.rate": float,
    "dynamics.clock": _parse_choice(CLOCK_VIRTUAL, CLOCK_WALL),
    "dynamics.seconds_per_iteration": float,
    "output.path": str,
}


def parse_config_file(path) -> dict[str, str]:
    """Raw key/value pairs from a flat ``key = value`` file."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def parse_overrides(pairs: list[str]) -> dict[str, str]:
    """Raw key/value pairs from repeated ``--set key=value`` arguments."""
    values: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, value = pair.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def build_experiment_config(values: dict[str, str]) -> ExperimentConfig:
    """Typed experiment config from raw key/value pairs (defaults applied)."""
    typed: dict[str, object] = {}
    for key, raw in values.items():
        caster = CONFIG_SCHEMA.get(key)
        if caster is None:
            raise ConfigError(f"unknown config key: {key}")
        try:
            typed[key] = caster(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc

    problem = ModelProblemSpec(
        n=typed.get("problem.n", 10),
        box_upper=typed.get("problem.box_upper", 200.0),
        sum_upper=typed.get("problem.sum_upper"),
        sum_lower=typed.get("problem.sum_lower", 100.0),
    )
    solver = SolverConfig(
        eps=typed.get("solver.eps", 1e-7),
        step_length=typed.get("solver.lambda", 1.0),
        variant=typed.get("solver.variant", VARIANT_MODAP),
        max_iterations=typed.get("solver.max_iterations", 100_000),
    )
    workers = typed.get("engine.workers", 0)
    if workers < 0:
        raise ConfigError(f"engine.workers must be >= 0, got {workers}")
    engine = EngineConfig(workers=workers) if workers >= 1 else None
    dynamics = DynamicsSpec(
        mode=typed.get("dynamics.mode", STATIONARY),
        rate=typed.get("dynamics.rate", 0.0),
        clock=typed.get("dynamics.clock", CLOCK_VIRTUAL),
        seconds_per_iteration=typed.get("dynamics.seconds_per_iteration", 0.01),
    )
    return ExperimentConfig(
        problem=problem,
        solver=solver,
        engine=engine,
        dynamics=dynamics,
        output_path=typed.get("output.path", "metrics.csv"),
        system_file=typed.get("problem.file"),
    )


# ---------------------------------------------------------------------------
# running experiments

METRICS_HEADER = "iteration,h,step_norm,max_violation,virtual_time,wall_time"


def _write_metrics(
    path: Path, rows: list[IterationRecord], summary: dict, wall_mode: bool
) -> None:
    lines = [METRICS_HEADER]
    for r in rows:
        wall = _format_float(r.wall_time) if wall_mode else ""
        lines.append(
            f"{r.k},{r.h},{_format_float(r.step_norm)},"
            f"{_format_float(r.max_violation)},{_format_float(r.virtual_time)},{wall}"
        )
    for key, value in summary.items():
        lines.append(f"# {key}={value}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def run_experiment(config: ExperimentConfig, output_path=None) -> tuple[SolveOutcome, Path]:
    """Build the source, run the configured engine, write one metrics file."""
    if config.system_file is not None:
        system = load_system(config.system_file)
    else:
        system = generate_model_problem(config.problem)
    source = DynamicSystemSource(system, config.dynamics)
    solver_config = replace(config.solver, record_trace=True)
    if config.engine is None:
        outcome = solve(source, solver_config)
    else:
        outcome = run_parallel(source, solver_config, config.engine)

    rows = outcome.trace or []
    wall_mode = config.dynamics.clock == CLOCK_WALL
    summary = {
        "status": outcome.status.value,
        "iterations": outcome.iterations,
        "virtual_time": _format_float(source.current_time),
    }
    if wall_mode and rows:
        summary["wall_time"] = _format_float(rows[-1].wall_time)
    path = Path(output_path if output_path is not None else config.output_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_metrics(path, rows, summary, wall_mode)
    return outcome, path


def run_rate_sweep(
    config: ExperimentConfig, rates: list[float], out_dir
) -> list[tuple[float, SolveOutcome]]:
    """Run one experiment per displacement rate under translation dynamics.

    Writes ``rate_<r>.csv`` per rate plus ``summary.csv`` mapping rate to
    status and iteration count; returns the outcomes in rate order.
    """
    if not rates:
        raise ConfigError("rate sweep needs at least one rate")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for rate in rates:
        dyn = replace(config.dynamics, mode=TRANSLATION, rate=rate)
        cfg = replace(config, dynamics=dyn)
        outcome, _ = run_experiment(cfg, out_dir / f"rate_{_format_float(rate)}.csv")
        results.append((rate, outcome))
    lines = ["rate,status,iterations"]
    for rate, outcome in results:
        lines.append(f"{_format_float(rate)},{outcome.status.value},{outcome.iterations}")
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    return results
