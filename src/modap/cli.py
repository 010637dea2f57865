"""Command-line interface.

Subcommands: ``solve`` (one experiment from a config file plus overrides),
``generate`` (emit a model problem file), ``costmodel`` (cost model table
as CSV), ``sweep`` (displacement-rate sweep).  Exit code 0 on convergence,
2 when the iteration budget ran out, 1 on any error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields

from . import cost_model
from .dynamics import TRANSLATION
from .harness import (
    CONFIG_SCHEMA,
    ConfigError,
    ModelProblemSpec,
    build_experiment_config,
    generate_model_problem,
    parse_config_file,
    parse_overrides,
    run_experiment,
    run_rate_sweep,
    save_system,
)
from .solver import SolveStatus

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; 2 is reserved for budget
    # exhaustion here, so argument errors exit 1 instead
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number_list(cast):
    """argparse type: a comma-separated list of ``cast`` values, none blank."""

    def parse(text: str) -> list:
        items = text.split(",")
        if not all(p.strip() for p in items):
            raise argparse.ArgumentTypeError(f"blank item in {cast.__name__} list {text!r}")
        try:
            return [cast(p) for p in items]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {cast.__name__} list {text!r}") from exc

    return parse


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="experiment config file")
    p.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override one config key (repeatable)",
    )
    # each flag's dest is the config key it sets
    p.add_argument("--workers", type=int, metavar="K", dest="engine.workers",
                   help="worker count (0 = sequential)")
    p.add_argument("--rate", type=float, metavar="R", dest="dynamics.rate",
                   help="displacement rate, units/second")
    p.add_argument("--eps", type=float, metavar="E", dest="solver.eps",
                   help="membership precision")
    p.add_argument("--lambda", type=float, metavar="L", dest="solver.lambda",
                   help="fixed step length for the modap variant")
    p.add_argument("--variant", choices=["ap", "modap"], dest="solver.variant",
                   help="iteration variant")
    p.add_argument("--max-iter", type=int, metavar="N", dest="solver.max_iterations",
                   help="iteration budget")


def _config_values(args) -> dict[str, str]:
    """The raw config: the file, then ``--set``, then the flags."""
    values: dict[str, str] = {}
    if args.config:
        values.update(parse_config_file(args.config))
    values.update(parse_overrides(args.overrides))
    for key, value in vars(args).items():
        if key in CONFIG_SCHEMA and value is not None:
            values[key] = str(value)
    return values


def _cmd_solve(args) -> int:
    config = build_experiment_config(_config_values(args))
    outcome, path = run_experiment(config)
    print(
        f"status={outcome.status.value} iterations={outcome.iterations} "
        f"metrics={path}"
    )
    return 0 if outcome.status is SolveStatus.CONVERGED else 2


def _cmd_generate(args) -> int:
    # the parser keeps only the flags that were given, so an absent bound
    # takes the dataclass default
    given = vars(args)
    spec = ModelProblemSpec(**{f.name: given[f.name] for f in fields(ModelProblemSpec)
                               if f.name in given})
    system = generate_model_problem(spec)
    save_system(system, args.out)
    print(f"wrote {args.out} (n={system.n}, m={system.m})")
    return 0


def _cmd_costmodel(args) -> int:
    columns = [f.name for table in (cost_model.CostCounts, cost_model.StageTimes)
               for f in fields(table)]
    lines = [
        "# assumed cost parameters (not measured): "
        f"tau_op={args.tau_op} tau_tr={args.tau_tr} latency={args.latency}",
        ",".join(["n", "m", *columns, "k_max"]),
    ]
    for n in args.n_values:
        m = args.m if args.m is not None else 2 * n + 2
        params = cost_model.CostParams(
            n=n, m=m, tau_op=args.tau_op, tau_tr=args.tau_tr,
            latency=args.latency, update_breadth=args.breadth,
        )
        row = (
            n, m, *astuple(cost_model.operation_counts(n, m, args.breadth)),
            *astuple(cost_model.stage_times(params)), cost_model.k_max(params),
        )
        lines.append(",".join(map(repr, row)))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args) -> int:
    values = _config_values(args)
    if "dynamics.rate" in values:  # each run's rate replaces it
        raise ConfigError("modap sweep takes its rates from --rates, not from --rate "
                          "or dynamics.rate")
    if values.get("dynamics.mode", TRANSLATION) != TRANSLATION:  # each run translates
        raise ConfigError(f"modap sweep translates at each rate; it takes no "
                          f"dynamics.mode = {values['dynamics.mode']}")
    results = run_rate_sweep(build_experiment_config(values), args.rates, args.out_dir)
    for rate, outcome in results:
        print(f"rate={rate} status={outcome.status.value} iterations={outcome.iterations}")
    all_converged = all(o.status is SolveStatus.CONVERGED for _, o in results)
    return 0 if all_converged else 2


def main(argv=None) -> int:
    parser = _Parser(prog="modap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one experiment")
    _add_experiment_args(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("generate", help="write a model problem file",
                           argument_default=argparse.SUPPRESS)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--box-upper", type=float)
    p_gen.add_argument("--sum-upper", type=float)
    p_gen.add_argument("--sum-lower", type=float)
    p_gen.add_argument("--out", required=True, metavar="PATH")
    p_gen.set_defaults(func=_cmd_generate)

    p_cost = sub.add_parser("costmodel", help="cost model table as CSV")
    p_cost.add_argument("--m", type=int, default=None, help="default 2n+2")
    p_cost.add_argument("--tau-op", type=float, default=cost_model.DEFAULT_TAU_OP)
    p_cost.add_argument("--tau-tr", type=float, default=cost_model.DEFAULT_TAU_TR)
    p_cost.add_argument("--latency", type=float, default=cost_model.DEFAULT_LATENCY)
    p_cost.add_argument("--breadth", choices=["single", "full"], default="single")
    p_cost.add_argument("--n-values", type=_number_list(int), default=[1000],
                        help="comma-separated sweep over n")
    p_cost.add_argument("--out", metavar="PATH")
    p_cost.set_defaults(func=_cmd_costmodel)

    p_sweep = sub.add_parser("sweep", help="displacement-rate sweep")
    _add_experiment_args(p_sweep)
    p_sweep.add_argument("--rates", type=_number_list(float), required=True,
                         metavar="R1,R2,...")
    p_sweep.add_argument("--out-dir", default="sweep_out", metavar="DIR")
    p_sweep.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
