import sys as sys_module
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modap.bsf_engine as bsf_engine
import modap.dynamics as dynamics
from conftest import brute_force_feasible, random_feasible_system
import oracles
from modap import (
    DynamicsSpec,
    DynamicSystemSource,
    EngineConfig,
    EngineError,
    InequalitySystem,
    ModelProblemSpec,
    SolverConfig,
    SolveStatus,
    generate_model_problem,
    run_parallel,
    solve,
)
from modap.bsf_engine import (
    combine_reports,
    compute_report,
    partition_rows,
    superstep,
)
from modap.geometry import max_relative_violation
from modap.summation import column_sums

BOX = InequalitySystem([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])


class TestPartitioning:
    def test_ceiling_split(self):
        sizes = [p.size for p in partition_rows(10, 3)]
        assert sizes == [4, 3, 3]

    def test_single_worker_identity(self):
        parts = partition_rows(6, 1)
        assert len(parts) == 1
        assert (parts[0].start, parts[0].stop) == (0, 6)

    def test_singletons(self):
        parts = partition_rows(7, 7)
        assert [p.size for p in parts] == [1] * 7

    def test_errors(self):
        with pytest.raises(ValueError):
            partition_rows(3, 4)
        with pytest.raises(ValueError):
            partition_rows(3, 0)

    @settings(max_examples=60)
    @given(st.integers(1, 40), st.data())
    def test_partitions_cover_every_row_exactly_once(self, m, data):
        workers = data.draw(st.integers(1, m))
        parts = partition_rows(m, workers)
        coverage = [0] * m
        for p in parts:
            for i in range(p.start, p.stop):
                coverage[i] += 1
        assert coverage == [1] * m
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1


class TestSuperstep:
    def test_single_partition_matches_sequential_reduce(self):
        x = np.array([3.0, 2.0])
        block, h, worst = superstep(BOX, x, partition_rows(BOX.m, 1))
        slices = [oracles.positive_slice(BOX, i, x) for i in range(BOX.m)]
        assert np.array_equal(column_sums(block), sum(slices))
        assert h == 2
        assert worst == max_relative_violation(BOX, x) == 2.0

    def test_one_row_per_worker_hand_values(self):
        x = np.array([3.0, 2.0])
        parts = partition_rows(BOX.m, 2)
        reports = [compute_report(BOX, p, x) for p in parts]
        assert [r.worker_index for r in reports] == [0, 1]
        assert np.array_equal(reports[0].slices, [[2.0, 0.0]])
        assert reports[0].partial_h == 1
        assert reports[0].max_violation == 2.0
        assert np.array_equal(reports[1].slices, [[0.0, 1.0]])
        assert reports[1].partial_h == 1
        assert reports[1].max_violation == 1.0
        block, h, worst = combine_reports(reports)
        assert np.array_equal(column_sums(block), [2.0, 1.0])
        assert h == 2
        assert worst == 2.0
        # a worker whose rows are all satisfied reports an empty block
        reports[1] = compute_report(BOX, parts[1], np.array([3.0, 0.0]))
        assert reports[1].slices.shape == (0, 2)
        assert reports[1].partial_h == 0
        assert reports[1].max_violation == 0.0
        assert combine_reports(reports)[1:] == (1, 2.0)

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.randoms())
    def test_combine_reports_same_bits_in_any_order(self, seed, workers, rnd):
        # cancelling slices: a rounded partial sum per worker, added in
        # arrival order, would depend on K and the order
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((14, 3)) * 10.0 ** rng.integers(-8, 9, (14, 1))
        sys = InequalitySystem(np.vstack([a, -a]), -np.ones(28))
        x = rng.standard_normal(3)
        parts = partition_rows(sys.m, workers)
        reports = [compute_report(sys, p, x) for p in parts]
        block, h, worst = combine_reports(reports)
        rnd.shuffle(reports)
        block_shuffled, h_shuffled, worst_shuffled = combine_reports(reports)
        block_seq, h_seq, worst_seq = superstep(sys, x, partition_rows(sys.m, 1))
        y, y_shuffled, y_seq = map(column_sums, (block, block_shuffled, block_seq))
        assert y_shuffled.tobytes() == y.tobytes() == y_seq.tobytes()
        assert h_shuffled == h == h_seq
        assert worst_shuffled == worst == worst_seq == max_relative_violation(sys, x)

    def test_feasible_point_zero_everywhere(self):
        x = np.array([0.0, 0.0])
        for k in (1, 2):
            block, h, worst = superstep(BOX, x, partition_rows(BOX.m, k))
            assert np.array_equal(column_sums(block), [0.0, 0.0])
            assert h == 0
            assert worst == 0.0

    def test_partial_h_bounded_by_partition_size(self, rng):
        sys, _ = random_feasible_system(rng, 6, 17)
        x = rng.uniform(-20, 20, 6)
        for p in partition_rows(sys.m, 5):
            rep = compute_report(sys, p, x)
            assert 0 <= rep.partial_h <= p.size

    def test_h_matches_brute_force_count(self, rng):
        sys, _ = random_feasible_system(rng, 5, 13)
        x = rng.uniform(-20, 20, 5)
        _, h, _ = superstep(sys, x, partition_rows(sys.m, 4))
        expected = sum(
            1
            for i in range(sys.m)
            if sum(float(sys.a[i][j]) * float(x[j]) for j in range(5)) > float(sys.b[i])
        )
        assert h == expected


class TestRunParallel:
    def _fresh(self, sys, moving=False):
        spec = DynamicsSpec()
        if moving:
            spec = DynamicsSpec(mode="translation", rate=0.4, seconds_per_iteration=0.05)
        return DynamicSystemSource(sys, spec)

    def test_k1_bit_identical_to_sequential(self, rng):
        sys, _ = random_feasible_system(rng, 8, 19)
        cfg = SolverConfig(record_iterates=True)
        seq = solve(self._fresh(sys), cfg)
        par = run_parallel(self._fresh(sys), cfg, EngineConfig(workers=1))
        assert par.iterations == seq.iterations
        assert all(np.array_equal(a, b) for a, b in zip(par.iterates, seq.iterates))

    def test_k4_bit_identical_to_k1(self, rng):
        sys, _ = random_feasible_system(rng, 8, 19)
        cfg = SolverConfig(record_iterates=True)
        one = run_parallel(self._fresh(sys, moving=True), cfg, EngineConfig(workers=1))
        four = run_parallel(self._fresh(sys, moving=True), cfg, EngineConfig(workers=4))
        assert four.iterations == one.iterations
        assert all(np.array_equal(a, b) for a, b in zip(four.iterates, one.iterates))

    @pytest.mark.parametrize("workers", [2, 7])
    def test_moving_bit_identical_to_sequential(self, rng, workers):
        # the workers read one shared snapshot at once; switching threads
        # often gives a race on its lazily computed bounds a chance to show
        sys, _ = random_feasible_system(rng, 8, 19)
        cfg = SolverConfig(record_iterates=True, record_trace=True)
        seq = solve(self._fresh(sys, moving=True), cfg)
        interval = sys_module.getswitchinterval()
        sys_module.setswitchinterval(1e-6)
        try:
            par = run_parallel(self._fresh(sys, moving=True), cfg,
                               EngineConfig(workers=workers))
        finally:
            sys_module.setswitchinterval(interval)
        assert par.iterations == seq.iterations > 0
        assert all(np.array_equal(a, b) for a, b in zip(par.iterates, seq.iterates))
        assert [r.max_violation for r in par.trace] == [r.max_violation for r in seq.trace]

    def test_workers_share_the_masters_snapshot(self, monkeypatch):
        # the system is translated once per iteration, by the master; the
        # workers keep no replica of their own
        calls = []
        real_translate = dynamics.translate

        def counting_translate(sys, v):
            calls.append(v)
            return real_translate(sys, v)

        seen = []
        real_report = bsf_engine.compute_report

        def recording_report(sys, part, x):
            seen.append(sys)
            return real_report(sys, part, x)

        monkeypatch.setattr(dynamics, "translate", counting_translate)
        monkeypatch.setattr(bsf_engine, "compute_report", recording_report)
        source = DynamicSystemSource(
            generate_model_problem(ModelProblemSpec(n=20)),
            DynamicsSpec(mode="translation", rate=1.0),
        )
        out = run_parallel(source, SolverConfig(), EngineConfig(workers=2))
        assert out.converged
        assert len(calls) == out.iterations
        # one superstep on the starting point, then one per iteration
        supersteps = out.iterations + 1
        assert len(seen) == 2 * supersteps
        assert all(seen[2 * k] is seen[2 * k + 1] for k in range(supersteps))

    def test_generator_instance_converges_and_passes_brute_force(self):
        sys = generate_model_problem(ModelProblemSpec(n=10))
        out = run_parallel(
            DynamicSystemSource(sys),
            SolverConfig(variant="modap", eps=1e-7),
            EngineConfig(workers=3),
        )
        assert out.status is SolveStatus.CONVERGED
        assert brute_force_feasible(sys, out.solution, 1e-7)

    @staticmethod
    def _count_reports(monkeypatch):
        """Partitions passed to ``compute_report``, one entry per call."""
        parts = []
        real_report = bsf_engine.compute_report

        def counting_report(sys, part, x):
            parts.append(part)
            return real_report(sys, part, x)

        monkeypatch.setattr(bsf_engine, "compute_report", counting_report)
        return parts

    def test_exit_synchronization_no_extra_supersteps(self, rng, monkeypatch):
        sys, _ = random_feasible_system(rng, 7, 16)
        parts = self._count_reports(monkeypatch)
        out = run_parallel(self._fresh(sys, moving=True),
                           SolverConfig(max_iterations=300), EngineConfig(workers=4))
        # the first superstep tests the starting point; each later one
        # follows a step
        sizes = [p.size for p in partition_rows(sys.m, 4)]
        calls = [[p for p in parts if p.worker_index == w] for w in range(4)]
        assert [len(c) for c in calls] == [out.iterations + 1] * 4
        assert [sum(p.size for p in c) for c in calls] == [
            s * (out.iterations + 1) for s in sizes
        ]
        assert sum(sizes) == sys.m

    def test_feasible_start_runs_one_superstep(self, monkeypatch):
        # the workers' pass on the starting point is the membership test
        parts = self._count_reports(monkeypatch)
        out = run_parallel(DynamicSystemSource(BOX), SolverConfig(), EngineConfig(workers=2))
        assert out.status is SolveStatus.CONVERGED
        assert out.iterations == 0
        assert sorted(p.worker_index for p in parts) == [0, 1]

    def test_worker_failure_aborts_with_engine_error(self, rng, monkeypatch):
        sys, _ = random_feasible_system(rng, 6, 12)

        real = bsf_engine.compute_report
        fault = RuntimeError("injected fault")

        def broken(system, part, x):
            if part.worker_index == 1:
                raise fault
            return real(system, part, x)

        monkeypatch.setattr(bsf_engine, "compute_report", broken)
        with pytest.raises(EngineError, match="worker 1") as info:
            run_parallel(self._fresh(sys), SolverConfig(), EngineConfig(workers=3))
        assert info.value.__cause__ is fault

    def test_worker_exit_without_exception_aborts_the_run(self, rng, monkeypatch):
        # SystemExit is no Exception; a worker that let it pass posted
        # nothing, and the master waited for its report forever
        sys, _ = random_feasible_system(rng, 6, 12)
        real = bsf_engine.compute_report

        def exiting(system, part, x):
            if part.worker_index == 1:
                raise SystemExit(3)
            return real(system, part, x)

        monkeypatch.setattr(bsf_engine, "compute_report", exiting)
        raised = []

        def run():
            try:
                run_parallel(self._fresh(sys), SolverConfig(), EngineConfig(workers=2))
            except BaseException as exc:  # noqa: BLE001 - inspected below
                raised.append(exc)

        master = threading.Thread(target=run, daemon=True)
        master.start()
        master.join(timeout=30)
        assert not master.is_alive(), "the run hangs after a worker exited"
        assert len(raised) == 1
        assert isinstance(raised[0], EngineError)
        assert "worker 1" in str(raised[0])

    @pytest.mark.parametrize("variant", ["ap", "modap"])
    def test_non_finite_iterate_is_an_error(self, variant):
        # the slice of row [1e-150] overflows to inf at x = 0
        sys = InequalitySystem([[1e-150], [1.0]], [-1e300, 5.0])
        with pytest.raises(ValueError, match="iteration 1 .* not finite"):
            run_parallel(self._fresh(sys), SolverConfig(variant=variant),
                         EngineConfig(workers=2))

    def test_more_workers_than_rows_rejected(self):
        with pytest.raises(ValueError):
            run_parallel(DynamicSystemSource(BOX), SolverConfig(), EngineConfig(workers=5))


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(workers=0)
