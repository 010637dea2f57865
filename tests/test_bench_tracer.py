"""The benchmark's tracer (``bench/tracer.py``) still sees the row pass.

The tracer patches names where the program looks them up; a solve whose
row pass it cannot see would report ``geometry.map_s`` as 0 without
failing.
"""

import sys
from pathlib import Path

from modap import (
    DynamicsSpec,
    DynamicSystemSource,
    EngineConfig,
    ModelProblemSpec,
    SolverConfig,
    generate_model_problem,
    run_parallel,
    solve,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracer  # noqa: E402


def _model_source():
    return DynamicSystemSource(
        generate_model_problem(ModelProblemSpec(n=100)),
        DynamicsSpec(mode="translation", rate=1.0),
    )


def test_traced_solves_report_the_row_pass():
    t = tracer.Tracer()
    config = SolverConfig(record_trace=True)
    with tracer.patched(t):
        t.request = "sequential"
        seq = solve(_model_source(), config)
        t.request = "workers2"
        par = run_parallel(_model_source(), config, EngineConfig(workers=2))
    assert seq.converged and par.converged
    for request, out in (("sequential", seq), ("workers2", par)):
        spans = [s for s in t.spans if s.request == request]
        layers = tracer.solve_layers(spans)
        assert layers["geometry.map_s"] > 0, request
        passes = [s for s in spans if s.name == "geometry.violated_slices"]
        assert len(passes) == (2 if request == "workers2" else 1) * (out.iterations + 1)
    # the engine's master makes no row pass: every pass ran on a worker
    master = next(s.thread for s in t.spans if s.request == "workers2" and s.name == "solver.loop")
    assert all(s.thread != master for s in t.spans
               if s.request == "workers2" and s.name == "geometry.violated_slices")
    assert layers["bsf_engine.supersteps"] == par.iterations + 1
