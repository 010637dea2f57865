import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modap.bsf_engine as bsf_engine
import modap.dynamics as dynamics
import modap.geometry as geometry
from conftest import brute_force_feasible, random_feasible_system
import oracles
from modap import (
    DynamicsSpec,
    DynamicSystemSource,
    EngineConfig,
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
        sizes = [len(p) for p in partition_rows(10, 3)]
        assert sizes == [4, 3, 3]

    def test_single_worker_identity(self):
        parts = partition_rows(6, 1)
        assert len(parts) == 1
        assert (parts[0].start, parts[0].stop) == (0, 6)

    def test_singletons(self):
        parts = partition_rows(7, 7)
        assert [len(p) for p in parts] == [1] * 7

    @pytest.mark.parametrize("workers", [2.5, True, np.float64(2), 0])
    def test_a_worker_count_that_is_not_a_count_is_rejected(self, workers):
        # 2.5 used to raise a TypeError, True to split into one range
        with pytest.raises(ValueError, match="^workers must be an integer >= 1, got "):
            partition_rows(10, workers)

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
        sizes = [len(p) for p in parts]
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
        assert parts == [range(0, 1), range(1, 2)]
        reports = [compute_report(BOX, p, x) for p in parts]
        assert np.array_equal(reports[0][0], [[2.0, 0.0]])
        assert reports[0][1:] == (1, 2.0)
        assert np.array_equal(reports[1][0], [[0.0, 1.0]])
        assert reports[1][1:] == (1, 1.0)
        block, h, worst = combine_reports(reports)
        assert np.array_equal(column_sums(block), [2.0, 1.0])
        assert h == 2
        assert worst == 2.0
        # a worker whose rows are all satisfied reports an empty block
        reports[1] = compute_report(BOX, parts[1], np.array([3.0, 0.0]))
        assert reports[1][0].shape == (0, 2)
        assert reports[1][1:] == (0, 0.0)
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
            block, h, _ = compute_report(sys, p, x)
            assert 0 <= h == len(block) <= len(p)

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

    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_a_translated_superstep_bounds_its_point_once(self, monkeypatch, workers):
        # ||x|| and ||v|| are bounded once per superstep, whatever K is, and
        # the blocks' passes give the bits of one sequential pass
        sys = dynamics.translate(generate_model_problem(ModelProblemSpec(n=20)),
                                 np.full(20, 0.5))
        x = np.arange(20.0) - 3.0
        want = superstep(sys, x, partition_rows(sys.m, 1))
        calls = []
        real = geometry._norm_bound

        def counting_bound(v):
            calls.append(v)
            return real(v)

        monkeypatch.setattr(geometry, "_norm_bound", counting_bound)
        block, h, worst = superstep(sys, x, partition_rows(sys.m, workers))
        assert len(calls) == 2
        assert h == want[1] > 0 and worst == want[2]
        assert block.tobytes() == want[0].tobytes()

    def test_combine_copies_no_lone_block(self):
        x = np.array([3.0, 0.0])
        reports = [compute_report(BOX, p, x) for p in partition_rows(BOX.m, 2)]
        assert reports[1][1] == 0
        assert combine_reports(reports)[0] is reports[0][0]
        assert combine_reports(reports[::-1])[0] is reports[0][0]
        empty = compute_report(BOX, range(0, 2), np.zeros(2))
        block, h, worst = combine_reports([empty, empty])
        assert block.shape == (0, 2) and (h, worst) == (0, 0.0)


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
        # every block reads the one translated snapshot the master's loop
        # made; the pass over a block must not depend on the other blocks
        sys, _ = random_feasible_system(rng, 8, 19)
        cfg = SolverConfig(record_iterates=True, record_trace=True)
        seq = solve(self._fresh(sys, moving=True), cfg)
        par = run_parallel(self._fresh(sys, moving=True), cfg, EngineConfig(workers=workers))
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

        def recording_report(sys, part, x, point):
            seen.append(sys)
            return real_report(sys, part, x, point)

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

        def counting_report(sys, part, x, point):
            parts.append(part)
            return real_report(sys, part, x, point)

        monkeypatch.setattr(bsf_engine, "compute_report", counting_report)
        return parts

    def test_exit_synchronization_no_extra_supersteps(self, rng, monkeypatch):
        sys, _ = random_feasible_system(rng, 7, 16)
        parts = self._count_reports(monkeypatch)
        out = run_parallel(self._fresh(sys, moving=True),
                           SolverConfig(max_iterations=300), EngineConfig(workers=4))
        # the first superstep tests the starting point; each later one
        # follows a step
        ranges = partition_rows(sys.m, 4)
        calls = [[p for p in parts if p == r] for r in ranges]
        assert [len(c) for c in calls] == [out.iterations + 1] * 4
        assert len(parts) == 4 * (out.iterations + 1)
        assert sum(len(r) for r in ranges) == sys.m

    def test_feasible_start_runs_one_superstep(self, monkeypatch):
        # the workers' pass on the starting point is the membership test
        parts = self._count_reports(monkeypatch)
        out = run_parallel(DynamicSystemSource(BOX), SolverConfig(), EngineConfig(workers=2))
        assert out.status is SolveStatus.CONVERGED
        assert out.iterations == 0
        assert sorted(parts, key=lambda p: p.start) == partition_rows(BOX.m, 2)

    def test_worker_failure_raises_the_pass_exception(self, rng, monkeypatch):
        sys, _ = random_feasible_system(rng, 6, 12)

        real = bsf_engine.compute_report
        fault = RuntimeError("injected fault")
        failing = partition_rows(sys.m, 3)[1].start

        def broken(system, part, x, point):
            if part.start == failing:
                raise fault
            return real(system, part, x, point)

        monkeypatch.setattr(bsf_engine, "compute_report", broken)
        with pytest.raises(RuntimeError) as info:
            run_parallel(self._fresh(sys), SolverConfig(), EngineConfig(workers=3))
        assert info.value is fault

    def test_worker_exit_without_exception_aborts_the_run(self, rng, monkeypatch):
        # SystemExit is no Exception; when a worker thread let it pass, it
        # posted nothing and the master waited for its report forever
        sys, _ = random_feasible_system(rng, 6, 12)
        real = bsf_engine.compute_report
        failing = partition_rows(sys.m, 2)[1].start

        def exiting(system, part, x, point):
            if part.start == failing:
                raise SystemExit(3)
            return real(system, part, x, point)

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
        assert type(raised[0]) is SystemExit and raised[0].code == 3

    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_starts_no_thread(self, rng, monkeypatch, workers):
        def refuse(thread):
            raise AssertionError(f"run_parallel started thread {thread.name}")

        sys, _ = random_feasible_system(rng, 6, 12)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = SolverConfig(record_iterates=True)
        seq = solve(self._fresh(sys, moving=True), cfg)
        par = run_parallel(self._fresh(sys, moving=True), cfg, EngineConfig(workers=workers))
        assert par.iterations == seq.iterations > 0
        assert all(np.array_equal(a, b) for a, b in zip(par.iterates, seq.iterates))

    def test_overflowing_row_raises_as_in_solve(self):
        # the first step lands near x = (-5e299, -5e299), where row 1's two
        # finite products sum past float64; row 1 is the second block's
        sys = InequalitySystem([[1e-8, 1e-8], [3e8, 3e8]], [-1e292, 1.0])
        raised = []
        for run in (lambda: solve(sys, SolverConfig(variant="ap")),
                    lambda: run_parallel(sys, SolverConfig(variant="ap"),
                                         EngineConfig(workers=2))):
            with pytest.raises(Exception) as info:
                run()
            raised.append(info.value)
        assert [type(e) for e in raised] == [ValueError, ValueError]
        assert str(raised[0]) == str(raised[1]) == "row 1: its residual overflows float64"

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


@pytest.mark.parametrize("configs", [(), (None,), (None, None)])
def test_default_configs_run_one_worker(configs):
    # SolverConfig() and EngineConfig(), one worker: the sequential solve's bits
    sys = InequalitySystem([[1.0, 2.0], [-3.0, 1.0], [0.5, -1.0]], [-1.0, 0.5, 2.0])
    got, want = run_parallel(sys, *configs), solve(sys)
    assert got.status is want.status and got.iterations == want.iterations > 0
    assert got.solution.tobytes() == want.solution.tobytes()


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(workers=0)
    # a float or a string used to pass, then fail in range() or in <
    for workers in (2.5, 2.0, "2", True, None):
        with pytest.raises(ValueError, match=f"got {workers!r}"):
            EngineConfig(workers=workers)
    assert EngineConfig(workers=np.int64(2)).workers == 2
    assert run_parallel(BOX, SolverConfig(), EngineConfig(workers=np.int64(2))).converged
