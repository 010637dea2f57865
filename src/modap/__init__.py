"""Feasibility solver for static and moving systems of linear inequalities.

Finds points satisfying ``A x <= b`` to a configurable precision via
averaged-projection iterations: the classic decaying-step variant (ap) and
a fixed-step variant (modap) that keeps converging while the feasible
region translates.  Includes a bulk-synchronous master-worker engine whose
iterates reproduce the sequential ones bit for bit, an analytic cost model
predicting how far the parallelism scales, and an experiment harness with
a CLI.
"""

from .bsf_engine import (
    EngineConfig,
    EngineError,
    MasterWorkerEngine,
    Partition,
    WorkerReport,
    combine_reports,
    compute_report,
    partition_rows,
    run_parallel,
    superstep,
)
from .cost_model import (
    CostCounts,
    CostParams,
    CostReport,
    StageTimes,
    k_max,
    operation_counts,
    stage_times,
)
from .dynamics import (
    DynamicsSpec,
    DynamicSystemSource,
    as_source,
    translate,
)
from .geometry import (
    FeasiblePointError,
    InequalitySystem,
    SliceResult,
    eps_membership,
    eps_satisfies,
    fixed_step_direction,
    max_relative_violation,
    orthogonal_projection,
    positive_slice,
    pseudo_projection,
    reflection_vector,
    residual,
    vector_norm,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ModelProblemSpec,
    SystemFormatError,
    generate_model_problem,
    interior_witness,
    load_system,
    run_experiment,
    run_rate_sweep,
    save_system,
)
from .solver import (
    VARIANT_AP,
    VARIANT_MODAP,
    IterationRecord,
    SolveOutcome,
    SolveStatus,
    SolverConfig,
    ap_step,
    map_stage,
    modap_step,
    reduce_stage,
    solve,
)

__version__ = "0.1.0"
