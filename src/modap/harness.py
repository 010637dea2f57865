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

import itertools
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bsf_engine import EngineConfig, run_parallel
from .dynamics import CLOCK_WALL, TRANSLATION, DynamicsSpec, DynamicSystemSource
from .geometry import InequalitySystem
from .solver import IterationRecord, SolveOutcome, SolverConfig, solve

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
    # [I; -I; 1; -1] as CSR rows: its 4n non-zeros, one per row and then
    # two full rows
    indptr = np.arange(2 * n + 3)
    indptr[-2:] = 3 * n, 4 * n
    indices = np.arange(4 * n) % n
    data = np.ones(4 * n)
    data[n:2 * n] = data[3 * n:] = -1.0
    b = np.zeros(2 * n + 2)
    b[:n] = spec.box_upper
    b[-2:] = spec.sum_upper, -spec.sum_lower
    return InequalitySystem((indptr, indices, data), b, n=n)


@dataclass
class ExperimentConfig:
    """One experiment: problem, solver, engine, dynamics, output."""

    problem: ModelProblemSpec
    solver: SolverConfig
    engine: EngineConfig | None = None  # None = run the sequential engine
    dynamics: DynamicsSpec = field(default_factory=DynamicsSpec)
    output_path: str = "metrics.csv"
    system_file: str | None = None


# ---------------------------------------------------------------------------
# system files


def _format_float(v: float) -> str:
    return repr(float(v))


def save_system(sys: InequalitySystem, path) -> None:
    """Write a system file from the stored rows; floats use shortest
    round-trip formatting so load(save(sys)) reproduces the arrays exactly.
    A coefficient that is not stored is written ``0.0``."""
    path = Path(path)
    lines = [f"{sys.n} {sys.m}"]
    indptr, indices, data = sys.indptr.tolist(), sys.indices.tolist(), sys.data.tolist()
    for i, bound in enumerate(sys.b.tolist()):
        parts = ["0.0"] * sys.n
        for j in range(indptr[i], indptr[i + 1]):
            parts[indices[j]] = _format_float(data[j])
        parts.append(_format_float(bound))
        lines.append(" ".join(parts))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def load_system(path) -> InequalitySystem:
    """Read a system file.  ``np.loadtxt`` converts each value with the routine
    ``float()`` uses; a file that does not load is scanned for its first fault."""
    try:
        with open(path, encoding="ascii") as f:
            lines = (raw for raw in f if raw.split("#", 1)[0].strip())
            # taking the first row here keeps loadtxt from warning of no data
            header, first = next(lines).split("#", 1)[0], next(lines)
            n, m = map(int, header.split())
            table = np.loadtxt(itertools.chain([first], f), np.float64, comments="#", ndmin=2)
    except (StopIteration, ValueError, UnicodeDecodeError):
        table = None
    if table is None or "_" in header or n < 1 or table.shape != (m, n + 1):
        raise SystemFormatError(f"{path}: {_first_fault(path)}")
    try:
        return InequalitySystem(table[:, :n], table[:, n])
    except ValueError as exc:
        raise SystemFormatError(f"{path}: {exc}") from exc


def _first_fault(path) -> str:
    """What is wrong with a system file that does not load; rows count from 0."""
    try:  # the lines loadtxt reads: universal newlines, no comments, no blanks
        lines = [line for raw in Path(path).read_text(encoding="ascii").split("\n")
                 if (line := raw.split("#", 1)[0].strip())]
    except UnicodeDecodeError as exc:
        return f"byte {exc.start} ({exc.object[exc.start]:#x}) is not ASCII"
    if not lines:
        return "empty system file"
    for i, line in enumerate(lines):  # float() and int() read "1_0" as 10
        if "_" in line:
            return f"{'the header' if i == 0 else f'row {i - 1}'} has a non-numeric value with '_'"
    try:
        n, m = map(int, lines[0].split())
    except ValueError:
        if len(lines[0].split()) != 2:
            return f"header must be 'n m', got {lines[0]!r}"
        return f"non-integer header {lines[0]!r}"
    if n < 1 or m < 1:
        return f"header must declare n >= 1 and m >= 1, got {lines[0]!r}"
    if len(lines) - 1 != m:
        return f"header declares m={m} rows but the file contains {len(lines) - 1}"
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != n + 1:
            return f"row {i} has {len(parts)} values, expected n+1 = {n + 1}"
        try:
            list(map(float, parts))
        except ValueError:
            return f"row {i} has a non-numeric value"
    return "not a system file"


# ---------------------------------------------------------------------------
# config files

# each dotted key names the field it sets, as (object, field, cast); the
# defaults and the checks of the values are the dataclasses' own
CONFIG_SCHEMA = {
    "problem.n": ("problem", "n", int),
    "problem.box_upper": ("problem", "box_upper", float),
    "problem.sum_upper": ("problem", "sum_upper", float),
    "problem.sum_lower": ("problem", "sum_lower", float),
    "problem.file": ("experiment", "system_file", str),
    "solver.eps": ("solver", "eps", float),
    "solver.lambda": ("solver", "step_length", float),
    "solver.variant": ("solver", "variant", str),
    "solver.max_iterations": ("solver", "max_iterations", int),
    "engine.workers": ("engine", "workers", int),
    "dynamics.mode": ("dynamics", "mode", str),
    "dynamics.rate": ("dynamics", "rate", float),
    "dynamics.clock": ("dynamics", "clock", str),
    "dynamics.seconds_per_iteration": ("dynamics", "seconds_per_iteration", float),
    "output.path": ("experiment", "output_path", str),
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
    """Typed experiment config from raw key/value pairs; a key that is not
    given keeps its dataclass default, and ``problem.n`` defaults to 10."""
    kwargs: dict[str, dict] = {
        "problem": {"n": 10}, "solver": {}, "engine": {}, "dynamics": {}, "experiment": {},
    }
    for key, raw in values.items():
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key: {key}")
        obj, name, cast = CONFIG_SCHEMA[key]
        try:
            kwargs[obj][name] = cast(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc

    # a loaded system replaces the generated one, whose shape it would drop
    shape = [key for key in values if key.startswith("problem.") and key != "problem.file"]
    if "problem.file" in values and shape:
        raise ConfigError(f"{', '.join(shape)} shape the generated model problem, "
                          "which problem.file replaces")
    # a rate moves only a translating system; a stationary one would drop
    # it without a word
    dynamics = kwargs["dynamics"]
    if dynamics.get("rate") and dynamics.get("mode") != TRANSLATION:
        raise ConfigError(
            f"dynamics.rate = {dynamics['rate']} needs dynamics.mode = {TRANSLATION}"
        )
    workers = kwargs["engine"].get("workers", 0)  # 0 = the sequential engine
    if workers < 0:
        raise ConfigError(f"engine.workers must be >= 0, got {workers}")
    return ExperimentConfig(
        problem=ModelProblemSpec(**kwargs["problem"]),
        solver=SolverConfig(**kwargs["solver"]),
        engine=EngineConfig(workers) if workers else None,
        dynamics=DynamicsSpec(**dynamics),
        **kwargs["experiment"],
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
