import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import one_iteration, random_feasible_system
from modap import (DynamicsSpec, DynamicSystemSource, EngineConfig, InequalitySystem,
                   ModelProblemSpec, SolverConfig, generate_model_problem, geometry,
                   run_parallel, solve, summation)
from modap.dynamics import translate
from modap.geometry import (_BLOCK_ELEMENTS, eps_membership, max_relative_violation,
                            vector_norms, violated_slices)
from modap.summation import SMALL_BLOCK, column_sums

BOX = InequalitySystem([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])  # x1 <= 1, x2 <= 1


def system_strategy(max_n=5, max_m=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        m = draw(st.integers(1, max_m))
        coef = st.floats(min_value=-5, max_value=5, allow_nan=False)
        a = np.array(
            [[draw(coef) for _ in range(n)] for _ in range(m)], dtype=float
        )
        # keep rows well away from zero so norms stay meaningful
        for i in range(m):
            if np.linalg.norm(a[i]) < 1e-2:
                a[i, i % n] += 1.0
        b = np.array([draw(coef) for _ in range(m)], dtype=float)
        x = np.array([draw(coef) for _ in range(n)], dtype=float)
        return InequalitySystem(a, b), x

    return build()


@st.composite
def one_entry_mixes(draw):
    """``(n, rows, block, bad)``: CSR rows as (first column, entries) pairs,
    one-entry rows among them, some of whose squares are subnormal; a chunk
    size in entries; and None or a one-entry row (index, entry) to insert,
    whose square overflows or underflows."""
    n = draw(st.integers(2, 6))
    one = st.sampled_from([1.0, -1.0, 1e-160, -1e-160, 3e-155, 1e100, -7.5]).map(lambda a: (a,))
    magnitude = st.floats(min_value=1e-160, max_value=1e100)
    many = st.lists(magnitude | magnitude.map(lambda a: -a), min_size=2, max_size=n)
    rows = draw(st.lists(st.tuples(st.integers(0, n - 1), one | many.map(tuple)),
                         min_size=1, max_size=12))
    bad = draw(st.none() | st.tuples(st.integers(0, len(rows)),
                                     st.sampled_from([1e200, -1e170, 1e-170, -1e-170])))
    return n, rows, draw(st.integers(1, 8)), bad


class TestInequalitySystem:
    def test_cached_norms_match_fresh(self):
        a = np.array([[3.0, 4.0], [1.0, -2.0], [0.5, 0.0]])
        sys = InequalitySystem(a, [1.0, 2.0, 3.0])
        fresh = (a * a).sum(axis=1)
        assert np.allclose(sys.row_norms_sq, fresh, rtol=1e-12)

    def test_blocked_set_up_sums_equal_the_row_loop(self):
        # rows spread over 2^120 so the sums cancel and round, in several
        # row blocks of the vectorised path; the ragged system's rows store
        # 1 to 300 entries, so its row chunks are summed as segments
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((700, 300)) * 2.0 ** rng.integers(-60, 60, (700, 300))
        ragged = np.where(rng.random((700, 300)) < rng.random((700, 1)), dense, 0.0)
        ragged[:, 0] = dense[:, 0]
        v = rng.standard_normal(300)
        for a in (dense, ragged):
            sys = InequalitySystem(a, np.ones(700))
            assert sys.data.size > _BLOCK_ELEMENTS  # more than one chunk
            want = [math.fsum((row * row).tolist()) for row in a]
            assert sys.row_norms_sq.tobytes() == np.array(want).tobytes()
            # over 100 violated rows take the translated exact path and its bounds
            x = rng.standard_normal(300) * 2.0 ** 40
            got = violated_slices(translate(sys, v), x)
            want = oracles.row_pass(oracles.translate(sys, v), x)
            assert got[0].shape[0] > 100
            assert (got[0].tobytes(), got[1]) == (want[0].tobytes(), want[1])

    @settings(max_examples=150, deadline=None)
    @given(one_entry_mixes())
    @example((3, [(0, (-3.0,)), (1, (2.0, 1e-160)), (2, (1e-160,))], 2, None))  # 1e-320
    @example((2, [(0, (1.0, 1.0)), (1, (2.0,)), (0, (1.0, 5.0))], 1, (0, 1e200)))
    @example((2, [(0, (1.0, 1.0))], 4, (1, -1e-170)))
    def test_one_entry_rows_take_their_square(self, mix):
        """A row that stores one entry has its exactly rounded square as its
        cached squared norm, and its overflow or underflow is reported by
        row; the wider rows are summed in chunks of at most ``block``
        entries, so they are gathered apart from the one-entry rows."""
        n, rows, block, bad = mix
        rows = [(min(first, n - len(values)), values) for first, values in rows]
        if bad is not None:
            rows.insert(bad[0], (0, (bad[1],)))
        indptr = np.cumsum([0] + [len(values) for _, values in rows])
        indices = [first + j for first, values in rows for j in range(len(values))]
        values = [value for _, row in rows for value in row]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "_BLOCK_ELEMENTS", block)
            if bad is not None:
                way = "overflows" if abs(bad[1]) > 1.0 else "underflows"
                with pytest.raises(ValueError, match=f"^row {bad[0]}: its squared norm "
                                                     f"{way} float64$"):
                    InequalitySystem((indptr, indices, values), np.ones(len(rows)), n=n)
                return
            sys = InequalitySystem((indptr, indices, values), np.ones(len(rows)), n=n)
        want = [math.fsum(value * value for value in row) for _, row in rows]
        assert sys.row_norms_sq.tobytes() == np.array(want).tobytes()

    def test_model_set_up_sums_only_its_two_full_rows(self, monkeypatch):
        # the 2000 one-entry rows take their squares; row_sums sees the two
        # slab rows as one (2, 1000) block
        calls = []
        real = geometry.row_sums

        def counting(values, starts=None):
            calls.append((values.shape, starts))
            return real(values, starts)

        monkeypatch.setattr(geometry, "row_sums", counting)
        sys = generate_model_problem(ModelProblemSpec(n=1000))
        assert calls == [((2, 1000), None)]
        assert sys.row_norms_sq.tolist() == [1.0] * 2000 + [1000.0, 1000.0]

    def test_csr_rows_equal_the_dense_input(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((40, 9))
        a[rng.random((40, 9)) < 0.4] = 0.0
        a[rng.random((40, 9)) < 0.2] = -0.0
        a[::5] = rng.standard_normal((8, 9))  # fully stored rows
        a[:, 4] += 1.0  # no zero row
        b = rng.standard_normal(40)
        dense = InequalitySystem(a, b)
        stored = a != 0.0
        assert dense.indptr.tolist() == [0] + np.cumsum(stored.sum(axis=1)).tolist()
        assert dense.indices.tolist() == np.nonzero(stored)[1].tolist()
        assert dense.data.tobytes() == a[stored].tobytes()
        csr = InequalitySystem((dense.indptr.tolist(), dense.indices.tolist(),
                                dense.data.tolist()), b, n=9)
        for name in ("indptr", "indices", "data", "row_norms_sq", "b"):
            assert getattr(csr, name).tobytes() == getattr(dense, name).tobytes()
        assert csr.indptr.dtype == csr.indices.dtype == np.intp
        assert np.array_equal(csr.a, a)

    @pytest.mark.parametrize("rows,n,match", [
        (([1, 2], [0], [1.0]), 2, "indptr"),
        (([0, 2, 1], [0, 1], [1.0, 2.0]), 2, "indptr"),
        (([0, 2], [0], [1.0, 2.0]), 2, "indptr"),
        (([0, 1], [2], [1.0]), 2, "columns"),
        (([0, 1], [-1], [1.0]), 2, "columns"),
        (([0, 2], [1, 0], [1.0, 2.0]), 2, "columns"),
        (([0, 2], [1, 1], [1.0, 2.0]), 2, "columns"),
        (([0, 2], [0, 1], [1.0, -0.0]), 2, "no zero"),
        (([0, 1], [0], [1.0]), 0, "n >= 1"),
        (([0], [], []), 2, "m >= 1"),
        (([0, 1, 1], [0], [1.0]), 2, "row 1 is the zero vector"),
        (([0, 1], [1.7], [2.0]), 3, "columns must be integers"),
        (([0, 1.9], [0], [1.0]), 2, "indptr must be integers"),
    ])
    def test_bad_csr_rows_rejected(self, rows, n, match):
        m = max(len(rows[0]) - 1, 1)
        with pytest.raises(ValueError, match=match):
            InequalitySystem(rows, np.ones(m), n=n)

    def test_dense_accessor_is_built_on_each_read(self):
        sys = InequalitySystem([[1.0, -0.0], [2.0, 3.0]], [1.0, 1.0])
        dense = sys.a
        assert dense is not sys.a
        assert dense.tobytes() == np.array([[1.0, 0.0], [2.0, 3.0]]).tobytes()
        dense[0, 0] = 7.0
        assert sys.a[0, 0] == 1.0
        with pytest.raises(AttributeError):
            sys.a = dense

    def test_sparse_set_up_and_passes_allocate_no_dense_matrix(self):
        # 8 m n = 256 MB dwarfs the 4n = 16000 stored entries; the limit is
        # one bit per dense entry, 4 MB, where set-up's O(m) arrays need 1.6
        n = 4000
        m = 2 * n + 2
        generate_model_problem(ModelProblemSpec(n=2))  # lazy imports and caches
        violated_slices(translate(generate_model_problem(ModelProblemSpec(n=2)),
                                  np.ones(2)), np.zeros(2))
        tracemalloc.start()
        try:
            sys = generate_model_problem(ModelProblemSpec(n=n))
            peaks = [tracemalloc.get_traced_memory()[1]]
            moved = translate(sys, np.full(n, 0.5))
            inside, corner = np.full(n, 100.0), np.r_[0.0, np.full(n - 1, 100.0)]
            for snapshot, x, h in [(sys, np.zeros(n), 1), (sys, inside, 0),
                                   (moved, inside, 0), (moved, corner, 1)]:
                tracemalloc.reset_peak()
                assert violated_slices(snapshot, x)[0].shape == (h, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < m * n / 8, peaks

    def test_zero_row_rejected_with_index(self):
        with pytest.raises(ValueError, match="row 1"):
            InequalitySystem([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            InequalitySystem([[1.0, 0.0]], [1.0, 2.0])

    @pytest.mark.parametrize("a,b,match", [
        ([[1.0, math.nan]], [1.0], "row 0 has a non-finite coefficient"),
        ([[1.0, 0.0], [math.inf, 1.0]], [1.0, 1.0], "row 1 has a non-finite coefficient"),
        ([[1.0, 0.0]], [math.nan], "bound of row 0 is not finite"),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, -math.inf], "bound of row 1 is not finite"),
        ([[1e200, 0.0]], [1.0], "row 0: its squared norm overflows"),
        ([[1e154, 1e154]], [1.0], "row 0: its squared norm overflows"),
        # wide enough for the vectorised sums
        ([[1.0] * 700, [1e154, 1e154] + [0.0] * 698], [1.0, 1.0],
         "row 1: its squared norm overflows"),
        # not the zero vector: (1e-170)^2 underflows to 0
        ([[1.0, 0.0], [1e-170, 0.0]], [1.0, -1e-170], "row 1: its squared norm underflows"),
    ])
    def test_non_finite_input_rejected(self, a, b, match):
        with pytest.raises(ValueError, match=match):
            InequalitySystem(a, b)

    @pytest.mark.parametrize("a,b,match", [
        ([1.0, 2.0], [1.0], r"coefficient array must be 2-D, got shape \(2,\)"),
        (np.zeros((0, 3)), [], r"m >= 1 rows and n >= 1 columns, got \(0, 3\)"),
    ])
    def test_bad_shape_rejected(self, a, b, match):
        with pytest.raises(ValueError, match=match):
            InequalitySystem(a, b)

    @pytest.mark.parametrize("bound,shift", [(1.5e308, 1e308), (-1.5e308, -1e308)])
    def test_overflowing_translated_bound_rejected(self, bound, shift):
        # 1.5e308 + 1e308 is past float64 although both terms are finite
        sys = InequalitySystem([[1.0, 0.0], [0.0, 1.0]], [bound, 1.0])
        moved = translate(sys, [shift, 0.0])
        match = "row 0: its translated bound overflows float64"
        # the internal pass leaves silencing floating-point warnings to its caller
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=match):
            violated_slices(moved, np.array([bound, 0.0]))

    def test_overflowing_residual_rejected_by_the_public_pass(self):
        # the products 2^1023 are finite and their sum is past float64
        sys = InequalitySystem([[2.0 ** 510, 2.0 ** 510]], [0.0])
        x = np.full(2, 2.0 ** 513)
        match = "^row 0: its residual overflows float64$"
        with pytest.raises(ValueError, match=match):
            max_relative_violation(sys, x)
        with pytest.raises(ValueError, match=match):
            eps_membership(sys, x, 1e-7)


class TestFullyStoredColumns:
    def test_fully_stored_rows_keep_no_column_array(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((30, 7)), rng.standard_normal(30)
        tiled = np.tile(np.arange(7), 30)
        dense = InequalitySystem(a, b)
        csr = InequalitySystem((dense.indptr, tiled, a.reshape(-1)), b, n=7)
        for sys in (dense, csr):
            assert sys._indices is None
            first, second = sys.indices, sys.indices
            assert first.dtype == np.intp and first.tolist() == tiled.tolist()
            assert not np.shares_memory(first, second)
        a[3, 2] = 0.0
        sparse = InequalitySystem(a, b)
        assert sparse._indices is not None and sparse.indices is sparse.indices
        assert sparse.indices.tolist() == np.nonzero(a)[1].tolist()

    def test_a_dense_system_holds_its_coefficients_once(self):
        # the column array, or its copy on the way in, would be as large as
        # data again; the same rows given dense and as CSR arrays
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal((2000, 500)), rng.standard_normal(2000)
        csr = (np.arange(0, a.size + 1, 500), np.tile(np.arange(500), 2000), a.reshape(-1))
        InequalitySystem(a[:2], b[:2])  # lazy imports and caches
        for rows, n in [(a, None), (csr, 500)]:
            tracemalloc.start()
            try:
                sys = InequalitySystem(rows, b, n=n)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert held < 1.5 * sys.data.nbytes, (n, held)
            assert peak < 1.5 * sys.data.nbytes, (n, peak)

    @pytest.mark.parametrize("moving", [False, True])
    def test_no_pass_reads_the_column_array(self, monkeypatch, moving):
        spec = DynamicsSpec(mode="translation", rate=0.4, seconds_per_iteration=0.05)

        def solves():
            sys, _ = random_feasible_system(np.random.default_rng(20), 8, 60)
            config = SolverConfig(record_iterates=True, record_trace=True)
            source = (lambda: DynamicSystemSource(sys, spec)) if moving else (lambda: sys)
            runs = [solve(source(), config)]
            runs += [run_parallel(source(), config, EngineConfig(workers=k)) for k in (1, 2, 7)]
            return [(run.status, [x.tobytes() for x in run.iterates],
                     [r.max_violation for r in run.trace]) for run in runs]

        plain = solves()
        assert plain[0][1][1:] and all(run == plain[0] for run in plain)

        def unread(sys):
            raise AssertionError("the column array was read")

        monkeypatch.setattr(InequalitySystem, "indices", property(unread))
        assert solves() == plain


class TestResidual:
    def test_hand_dot_product(self):
        sys = InequalitySystem([[3.0, 4.0]], [5.0])
        assert oracles.residual(sys, 0, [1.0, 1.0]) == 2.0
        block, worst = violated_slices(sys, np.array([1.0, 1.0]))
        assert np.array_equal(block, [[2.0 / 25.0 * 3.0, 2.0 / 25.0 * 4.0]])
        assert worst == 2.0 / 5.0

    def test_point_on_hyperplane(self):
        sys = InequalitySystem([[1.0, 0.0]], [0.0])
        assert oracles.residual(sys, 0, [0.0, 0.0]) == 0.0
        assert violated_slices(sys, np.zeros(2))[0].shape == (0, 2)

    def test_feasible_interior(self):
        sys = InequalitySystem([[1.0, 0.0]], [1.0])
        assert oracles.residual(sys, 0, [0.5, 7.0]) == -0.5
        assert violated_slices(sys, np.array([0.5, 7.0]))[0].shape == (0, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            max_relative_violation(BOX, [0.0, 0.0, 0.0])


class TestReflectionAndProjection:
    def test_reflection_hand_value(self):
        sys = InequalitySystem([[0.0, 2.0]], [2.0])
        assert np.array_equal(violated_slices(sys, np.array([0.0, 3.0]))[0], [[0.0, 2.0]])

    def test_reflection_zero_on_hyperplane(self):
        sys = InequalitySystem([[1.0, 2.0]], [5.0])
        assert np.array_equal(oracles.reflection_vector(sys, 0, [1.0, 2.0]), [0.0, 0.0])
        assert violated_slices(sys, np.array([1.0, 2.0]))[0].shape == (0, 2)

    def test_reflection_points_away_for_interior(self):
        sys = InequalitySystem([[1.0, 0.0]], [0.0])
        assert np.array_equal(oracles.reflection_vector(sys, 0, [-2.0, 5.0]), [-2.0, 0.0])
        assert violated_slices(sys, np.array([-2.0, 5.0]))[0].shape == (0, 2)

    def test_projection_hand_values(self):
        # the projection is x minus the row's slice
        sys = InequalitySystem([[0.0, 2.0]], [2.0])
        x = np.array([0.0, 3.0])
        assert np.array_equal(x - violated_slices(sys, x)[0][0], [0.0, 1.0])
        sys2 = InequalitySystem([[1.0, 1.0]], [0.0])
        x = np.array([1.0, 1.0])
        assert np.allclose(x - violated_slices(sys2, x)[0][0], [0.0, 0.0], atol=1e-15)


class TestPositiveSlice:
    def test_feasible_point_gives_zero_slice(self):
        sys = InequalitySystem([[1.0, 0.0]], [1.0])
        assert violated_slices(sys, np.array([0.5, 7.0]))[0].shape == (0, 2)

    def test_violated_point_hand_value(self):
        sys = InequalitySystem([[1.0, 0.0]], [1.0])
        assert np.array_equal(violated_slices(sys, np.array([3.0, 0.0]))[0], [[2.0, 0.0]])

    def test_boundary_counts_as_satisfied(self):
        sys = InequalitySystem([[1.0, 0.0]], [1.0])
        assert violated_slices(sys, np.array([1.0, 5.0]))[0].shape == (0, 2)


class TestPseudoProjection:
    def test_two_violated_rows_hand_average(self):
        block, _ = violated_slices(BOX, np.array([3.0, 2.0]))
        assert block.shape[0] == 2
        assert np.array_equal(column_sums(block) / 2, [1.0, 0.5])

    def test_feasible_point(self):
        block, _ = violated_slices(BOX, np.zeros(2))
        assert block.shape[0] == 0
        assert np.array_equal(column_sums(block), [0.0, 0.0])

    def test_single_violation_equals_slice(self):
        x = np.array([3.0, 0.0])
        block, _ = violated_slices(BOX, x)
        assert block.shape[0] == 1
        assert np.array_equal(column_sums(block), oracles.positive_slice(BOX, 0, x))


class TestFixedStepDirection:
    def test_hand_normalization(self):
        # single row with phi(x) = (3, 4): the step is (1.2, 1.6)
        sys = InequalitySystem([[3.0, 4.0]], [0.0])
        out = one_iteration(sys, [3.0, 4.0], "modap", 2.0)
        assert out.solution == pytest.approx([3.0 - 1.2, 4.0 - 1.6], rel=1e-12)

    def test_axis_aligned(self):
        sys = InequalitySystem([[0.0, 5.0]], [0.0])
        out = one_iteration(sys, [0.0, 5.0], "modap", 1.0)
        assert out.solution == pytest.approx([0.0, 4.0], rel=1e-12)


class TestEpsMembership:
    def test_feasible_any_eps(self):
        sys = InequalitySystem([[1.0, 0.0]], [1.0])
        assert oracles.eps_satisfies(sys, 0, [0.0, 0.0], 1e-12)
        assert eps_membership(sys, [0.0, 0.0], 1e-12)

    def test_small_violation_inside_eps(self):
        sys = InequalitySystem([[1.0, 0.0]], [1.0])
        assert oracles.eps_satisfies(sys, 0, [1.0 + 5e-8, 0.0], 1e-7)
        assert not oracles.eps_satisfies(sys, 0, [2.0, 0.0], 1e-7)
        assert eps_membership(sys, [1.0 + 5e-8, 0.0], 1e-7)
        assert not eps_membership(sys, [2.0, 0.0], 1e-7)

    def test_membership_examples(self):
        assert eps_membership(BOX, [0.0, 0.0], 1e-7)
        near = [1.0 + 5e-8, 1.0 + 5e-8]
        assert eps_membership(BOX, near, 1e-7)
        assert not eps_membership(BOX, near, 1e-9)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            eps_membership(BOX, [0.0, 0.0], 0.0)


class TestMaxRelativeViolation:
    def test_feasible_is_zero(self):
        assert max_relative_violation(BOX, [0.0, 0.0]) == 0.0

    def test_hand_value(self):
        sys = InequalitySystem([[1.0, 0.0]], [1.0])
        assert max_relative_violation(sys, [3.0, 0.0]) == 2.0

    def test_row_scale_invariant_value(self):
        sys = InequalitySystem([[2.0, 0.0]], [2.0])
        assert max_relative_violation(sys, [3.0, 0.0]) == 2.0


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=80)
@given(system_strategy())
def test_projection_lands_on_hyperplane(sys_x):
    sys, x = sys_x
    for i in range(sys.m):
        p = oracles.orthogonal_projection(sys, i, x)
        lhs = float(np.dot(sys.a[i], p))
        assert abs(lhs - float(sys.b[i])) <= abs(float(sys.b[i])) * 1e-12 + 1e-12


@settings(max_examples=80)
@given(system_strategy())
def test_slice_flag_matches_residual_sign(sys_x):
    """The pass returns the reflection of exactly the rows with a positive
    residual, in row order."""
    sys, x = sys_x
    want = []
    for i in range(sys.m):
        s = oracles.positive_slice(sys, i, x)
        if oracles.residual(sys, i, x) > 0:
            assert np.array_equal(s, oracles.reflection_vector(sys, i, x))
            want.append(s)
        else:
            assert np.array_equal(s, np.zeros(sys.n))
    block, _ = violated_slices(sys, x)
    assert np.array_equal(block, np.array(want).reshape(len(want), sys.n))


@st.composite
def normal_product_systems(draw):
    """A system and a point whose entries are 0 or lie in [2^-20, 5] in
    magnitude, so that every product, sum, residual and slice entry below
    stays normal when the rows are scaled by up to 2^40."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(min_value=2.0 ** -20, max_value=5.0),
                      st.floats(min_value=-5.0, max_value=-2.0 ** -20))
    a = np.array([[draw(entry) for _ in range(n)] for _ in range(m)])
    a[~a.any(axis=1), 0] = 1.0
    b = np.array([draw(entry) for _ in range(m)])
    x = np.array([draw(entry) for _ in range(n)])
    return InequalitySystem(a, b), x


@settings(max_examples=60)
@given(normal_product_systems(), st.integers(0, 40))
def test_row_scaling_leaves_decisions_unchanged(sys_x, k):
    """Scaling rows and bounds by c = 2^k scales every product, sum and norm
    exactly while they stay normal, so signs, slices, the maximum and the eps
    decisions keep their bits."""
    sys, x = sys_x
    c = 2.0 ** k
    scaled = InequalitySystem(sys.a * c, sys.b * c)
    for i in range(sys.m):
        assert (oracles.residual(sys, i, x) > 0) == (oracles.residual(scaled, i, x) > 0)
        assert oracles.eps_satisfies(sys, i, x, 1e-7) == oracles.eps_satisfies(scaled, i, x, 1e-7)
    (block1, worst1), (block2, worst2) = violated_slices(sys, x), violated_slices(scaled, x)
    assert block1.tobytes() == block2.tobytes() and block1.shape == block2.shape
    assert np.float64(worst1).tobytes() == np.float64(worst2).tobytes()
    assert eps_membership(sys, x, 1e-7) == eps_membership(scaled, x, 1e-7)


@settings(max_examples=60)
@given(system_strategy(), st.floats(min_value=0.01, max_value=100.0))
# 1.625 e-7 / 1.625 rounds to 9.999999999999998e-08: eps = 1e-7 accepts the
# scaled row and rejects the original one
@example((InequalitySystem([[1.0]], [0.0]), np.array([1e-7])), 1.625)
# x lies on the row's hyperplane; the scaled row's residual rounds to 1.1e-13
@example((InequalitySystem([[4.127555772777217, 1.066357757671799]], [9.93779703199541]),
          np.array([2.294965609839984, 0.4362499146542289])), 93.50789165453895)
def test_any_row_scaling_agrees_within_rounding(sys_x, c):
    """Any other factor rounds the scaled entries, so the values agree only
    within rounding: a decision on a value within rounding of eps, or the
    sign of a residual within rounding of 0, may differ."""
    sys, x = sys_x
    scaled = InequalitySystem(sys.a * c, sys.b * c)
    for i in range(sys.m):
        s1 = oracles.positive_slice(sys, i, x)
        s2 = oracles.positive_slice(scaled, i, x)
        assert np.allclose(s1, s2, atol=1e-10, rtol=1e-10)
    sum1, sum2 = (column_sums(violated_slices(s, x)[0]) for s in (sys, scaled))
    assert np.allclose(sum1, sum2, atol=1e-10, rtol=1e-10)
    assert max_relative_violation(sys, x) == pytest.approx(
        max_relative_violation(scaled, x), abs=1e-10, rel=1e-10
    )


@settings(max_examples=80)
@given(system_strategy(), st.floats(min_value=1e-3, max_value=10.0))
# phi = [1e-200]: its square underflows to 0
@example((InequalitySystem([[1.0]], [-1e-200]), np.array([0.0])), 1.0)
def test_fixed_step_has_requested_length(sys_x, length):
    sys, x = sys_x
    if violated_slices(sys, x)[0].shape[0] == 0:
        return
    out = one_iteration(sys, x, "modap", length)
    assert out.iterations == 1
    assert out.trace[0].step_norm == pytest.approx(length, rel=1e-12)


@settings(max_examples=80)
@given(system_strategy())
def test_membership_equals_forall_rows(sys_x):
    sys, x = sys_x
    eps = 1e-7
    assert eps_membership(sys, x, eps) == all(
        oracles.eps_satisfies(sys, i, x, eps) for i in range(sys.m)
    )


@settings(max_examples=80)
@given(system_strategy())
def test_phi_reconstruction(sys_x):
    sys, x = sys_x
    block, _ = violated_slices(sys, x)
    total = np.zeros(sys.n)
    for i in range(sys.m):
        total = total + oracles.positive_slice(sys, i, x)
    assert np.allclose(column_sums(block), total, atol=1e-10)
    assert block.shape[0] == sum(oracles.residual(sys, i, x) > 0 for i in range(sys.m))


def test_vector_norm_matches_math():
    assert vector_norms(np.array([[3.0, 4.0]]))[0] == 5.0


def test_vector_norm_rescales_outside_the_normal_range():
    with np.errstate(over="ignore"):  # the caller's scope, as the solvers' loop holds
        assert vector_norms(np.zeros((1, 3)))[0] == 0.0
        assert vector_norms(np.array([[1e-200]]))[0] == 1e-200
        assert vector_norms(np.array([[3e-170, 4e-170]]))[0] == pytest.approx(5e-170,
                                                                               rel=1e-15)
        assert vector_norms(np.array([[3e200, 4e200]]))[0] == pytest.approx(5e200, rel=1e-15)
        assert vector_norms(np.array([[1e308, 1e308]]))[0] == pytest.approx(math.sqrt(2) * 1e308)
        assert vector_norms(np.array([[1.5e308, 1.5e308]]))[0] == math.inf
        assert math.isnan(vector_norms(np.array([[math.nan, 1.0]]))[0])


@settings(max_examples=80)
@given(st.lists(st.floats(min_value=-1e100, max_value=1e100), min_size=1, max_size=6))
def test_vector_norm_keeps_its_bits_in_the_normal_range(values):
    v = np.array(values)
    s = math.fsum((v * v).tolist())
    if s >= 2.0 ** -1022:
        assert vector_norms(v[None])[0] == math.sqrt(s)


# zeros, subnormals, values whose squares underflow or overflow, squares
# that sum past float64 (1e154 twice), inf and nan
norm_values = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160,
                     3e-170, 1.0, -3.0, 1e154, 1e200, 1.5e308, math.inf, -math.inf,
                     math.nan]),
)


@st.composite
def norm_stacks(draw):
    """A ``(k, n)`` stack, k in 1..3 and n in 1..1500, so that the stacked
    squares lie on either side of the small-block cut-off, drawn from a
    small pool of values with random signs and a power-of-two scale per
    vector; some vectors are all zeros."""
    k = draw(st.integers(1, 3))
    n = draw(st.one_of(st.integers(1, 1500), st.sampled_from([1, 2, 600, 1000, 1500])))
    pool = np.array(draw(st.lists(norm_values, min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = rng.choice(pool, size=(k, n)) * rng.choice([-1.0, 1.0], size=(k, n))
    with np.errstate(over="ignore"):
        stack = np.ldexp(stack, rng.integers(-60, 61, (k, 1)))
    stack[rng.random(k) < 0.15] = 0.0
    return stack


@settings(deadline=None)
@given(norm_stacks())
@example(np.array([[3.0, 4.0] + [0.0] * 598, [1e-200] + [0.0] * 599]))
@example(np.array([[1e154] * 700, [1.0] * 700]))  # one row's sum overflows
@example(np.array([[1.5e308] * 2 + [0.0] * 698, [3e-170, 4e-170] + [0.0] * 698,
                   [math.nan] + [1.0] * 699]))
@example(np.array([[math.inf, 1.0] + [5e-324] * 998, [0.0] * 1000]))
@example(np.full((2, 1000), 5e-324))
def test_vector_norms_equal_the_per_vector_fsum_oracle(stack):
    want = np.array(oracles.vector_norms(stack)).tobytes()
    with np.errstate(over="ignore"):  # the caller's scope, as the solvers' loop holds
        assert np.array(vector_norms(stack)).tobytes() == want
        assert np.array([vector_norms(v[None])[0] for v in stack]).tobytes() == want


def test_two_stacked_norms_of_1000_take_the_block_levels(monkeypatch):
    # the loop's stack at n = 1000, the last step and the next direction,
    # is past the small-block cut-off, and so is one vector alone; a vector
    # of 100 is not
    stack = np.random.default_rng(10).standard_normal((2, 1000))
    assert 100 < SMALL_BLOCK <= 1000
    cases = [stack, stack[:1], stack[1:], stack[:1, :100]]
    want = [np.array(oracles.vector_norms(vs)).tobytes() for vs in cases]
    calls = []
    real = summation.math.fsum
    monkeypatch.setattr(summation.math, "fsum", lambda row: calls.append(len(row)) or real(row))
    assert [np.array(vector_norms(vs)).tobytes() for vs in cases] == want
    assert calls == [100]  # the short vector only


@settings(max_examples=150)
@given(
    system_strategy(),
    st.lists(st.booleans(), min_size=5, max_size=5),
    st.floats(min_value=5e-324, max_value=1e300),
)
def test_membership_is_max_violation_below_eps(sys_x, nan_at, eps):
    """The solver decides membership from the trace's max violation; the two
    must agree for every eps > 0 on a finite point, and both reject a point
    that holds NaN (which used to pass as violation 0)."""
    sys, x = sys_x
    x = np.where(np.array(nan_at[: sys.n]), math.nan, x)
    if np.isnan(x).any():
        for check in (lambda: eps_membership(sys, x, eps),
                      lambda: max_relative_violation(sys, x)):
            with pytest.raises(ValueError, match="point must be finite"):
                check()
    else:
        assert eps_membership(sys, x, eps) == (max_relative_violation(sys, x) < eps)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("moved", [False, True])
@pytest.mark.parametrize("check", [max_relative_violation,
                                   lambda sys, x: eps_membership(sys, x, 1e-7)],
                         ids=["max_relative_violation", "eps_membership"])
def test_a_point_that_is_not_finite_is_rejected(bad, moved, check):
    # [nan, 0] used to get violation 0.0 and pass membership at 1e-7, as did
    # [-inf, 0]; the solver already rejected both as an initial point
    sys = translate(BOX, [0.5, -0.5]) if moved else BOX
    with pytest.raises(ValueError, match="point must be finite"):
        check(sys, [bad, 0.0])
    with pytest.raises(ValueError, match="dimension mismatch: point has shape"):
        check(sys, [0.0, 0.0, 0.0])
