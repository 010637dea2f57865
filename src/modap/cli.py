"""Command-line interface.

Subcommands: ``solve`` (one experiment from a config file plus overrides),
``generate`` (emit a model problem file), ``costmodel`` (cost model table
as CSV), ``sweep`` (displacement-rate sweep).  Exit code 0 on convergence,
2 when the iteration budget ran out, 1 on any error.
"""

from __future__ import annotations

import argparse
import sys

from . import cost_model
from .bsf_engine import EngineError
from .harness import (
    ConfigError,
    ExperimentConfig,
    ModelProblemSpec,
    SystemFormatError,
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
    p.add_argument("--workers", type=int, metavar="K", help="worker count (0 = sequential)")
    p.add_argument("--rate", type=float, metavar="R", help="displacement rate, units/second")
    p.add_argument("--eps", type=float, metavar="E", help="membership precision")
    p.add_argument("--lambda", type=float, metavar="L", dest="step_length",
                   help="fixed step length for the modap variant")
    p.add_argument("--variant", choices=["ap", "modap"], help="iteration variant")
    p.add_argument("--max-iter", type=int, metavar="N", help="iteration budget")


def _experiment_config(args) -> ExperimentConfig:
    values: dict[str, str] = {}
    if args.config:
        values.update(parse_config_file(args.config))
    values.update(parse_overrides(args.overrides))
    flag_map = {
        "workers": "engine.workers",
        "rate": "dynamics.rate",
        "eps": "solver.eps",
        "step_length": "solver.lambda",
        "variant": "solver.variant",
        "max_iter": "solver.max_iterations",
    }
    for attr, key in flag_map.items():
        value = getattr(args, attr, None)
        if value is not None:
            values[key] = str(value)
    return build_experiment_config(values)


def _cmd_solve(args) -> int:
    config = _experiment_config(args)
    outcome, path = run_experiment(config)
    print(
        f"status={outcome.status.value} iterations={outcome.iterations} "
        f"metrics={path}"
    )
    return 0 if outcome.status is SolveStatus.CONVERGED else 2


def _cmd_generate(args) -> int:
    spec = ModelProblemSpec(
        n=args.n,
        box_upper=args.box_upper,
        sum_upper=args.sum_upper,
        sum_lower=args.sum_lower,
    )
    system = generate_model_problem(spec)
    save_system(system, args.out)
    print(f"wrote {args.out} (n={system.n}, m={system.m})")
    return 0


def _cmd_costmodel(args) -> int:
    n_values = args.n_values or [args.n]
    lines = [
        "# assumed cost parameters (not measured): "
        f"tau_op={args.tau_op} tau_tr={args.tau_tr} latency={args.latency}",
        "n,m,c_s,c_map,c_a,c_r,c_p,c_u,t_s,t_map,t_r,t_a,t_p,k_max",
    ]
    for n in n_values:
        m = args.m if args.m is not None else 2 * n + 2
        rep = cost_model.report(
            cost_model.CostParams(
                n=n, m=m, tau_op=args.tau_op, tau_tr=args.tau_tr,
                latency=args.latency, update_breadth=args.breadth,
            )
        )
        c, t = rep.counts, rep.times
        lines.append(
            f"{n},{m},{c.c_s},{c.c_map},{c.c_a},{c.c_r},{c.c_p},{c.c_u},"
            f"{t.t_s!r},{t.t_map!r},{t.t_r!r},{t.t_a!r},{t.t_p!r},{rep.k_max!r}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args) -> int:
    config = _experiment_config(args)
    results = run_rate_sweep(config, args.rates, args.out_dir)
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

    p_gen = sub.add_parser("generate", help="write a model problem file")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--box-upper", type=float, default=200.0)
    p_gen.add_argument("--sum-upper", type=float, default=None)
    p_gen.add_argument("--sum-lower", type=float, default=100.0)
    p_gen.add_argument("--out", required=True, metavar="PATH")
    p_gen.set_defaults(func=_cmd_generate)

    p_cost = sub.add_parser("costmodel", help="cost model table as CSV")
    p_cost.add_argument("--n", type=int, default=1000)
    p_cost.add_argument("--m", type=int, default=None, help="default 2n+2")
    p_cost.add_argument("--tau-op", type=float, default=cost_model.DEFAULT_TAU_OP)
    p_cost.add_argument("--tau-tr", type=float, default=cost_model.DEFAULT_TAU_TR)
    p_cost.add_argument("--latency", type=float, default=cost_model.DEFAULT_LATENCY)
    p_cost.add_argument("--breadth", choices=["single", "full"], default="single")
    p_cost.add_argument("--n-values", type=_number_list(int), default=None,
                        help="comma-separated sweep over n (overrides --n)")
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
    except (ConfigError, SystemFormatError, ValueError, OSError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
