"""Feasibility solver for static and moving systems of linear inequalities.

Finds points satisfying ``A x <= b`` to a configurable precision via
averaged-projection iterations: the classic decaying-step variant (ap) and
a fixed-step variant (modap) that keeps converging while the feasible
region translates.  Includes a bulk-synchronous master-worker engine, run
in the caller's thread, that splits each row pass over K row blocks and
reproduces the sequential iterates bit for bit, an analytic cost model
predicting how far the parallelism scales, and an experiment harness with
a CLI.  The package namespace holds what a caller needs to build, solve
and store a system; everything else is imported from its module.
"""

from .bsf_engine import EngineConfig, run_parallel
from .dynamics import DynamicsSpec, DynamicSystemSource
from .geometry import InequalitySystem
from .harness import (
    ModelProblemSpec,
    generate_model_problem,
    load_system,
    save_system,
)
from .solver import SolveOutcome, SolverConfig, SolveStatus, solve

__all__ = [
    "InequalitySystem",
    "SolverConfig",
    "SolveStatus",
    "SolveOutcome",
    "solve",
    "EngineConfig",
    "run_parallel",
    "DynamicsSpec",
    "DynamicSystemSource",
    "ModelProblemSpec",
    "generate_model_problem",
    "load_system",
    "save_system",
]

__version__ = "0.1.0"
