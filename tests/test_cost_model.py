import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modap.cost_model import (
    BREADTH_FULL,
    BREADTH_SINGLE,
    CostParams,
    k_max,
    operation_counts,
    report,
    stage_times,
)


def counted_map_ops_per_row(a_row, b_i, x):
    """Independent tally of the map kernel at scalar granularity.

    Counts one operation per scalar multiply, add/subtract, compare, or
    divide, pricing the squared row norm as recomputed (the model's stated
    convention).  Mirrors the slice evaluation: residual, threshold, norm,
    divide, scale.
    """
    ops = 0
    n = len(a_row)
    acc = a_row[0] * x[0]
    ops += 1
    for j in range(1, n):
        acc += a_row[j] * x[j]
        ops += 2  # multiply + add
    r = acc - b_i
    ops += 1
    positive = max(r, 0.0)
    ops += 1  # the comparison inside max
    norm_sq = a_row[0] * a_row[0]
    ops += 1
    for j in range(1, n):
        norm_sq += a_row[j] * a_row[j]
        ops += 2
    scale = positive / norm_sq
    ops += 1
    _ = [scale * aj for aj in a_row]
    ops += n
    return ops


class TestOperationCounts:
    def test_hand_values_n2_m4(self):
        c = operation_counts(2, 4, BREADTH_SINGLE)
        assert (c.c_s, c.c_map, c.c_a, c.c_r, c.c_p, c.c_u) == (2, 44, 2, 2, 35, 1)

    def test_full_breadth_update(self):
        assert operation_counts(2, 4, BREADTH_FULL).c_u == 12

    def test_minimal_system(self):
        c = operation_counts(1, 1)
        assert c.c_map == 6
        assert c.c_p == 24

    def test_master_work_does_not_grow_with_m(self):
        # the master makes no row pass and advances the source in O(n)
        assert operation_counts(5, 12).c_p == operation_counts(5, 10**6).c_p == 68

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            operation_counts(0, 5)
        with pytest.raises(ValueError):
            operation_counts(5, 0)

    @pytest.mark.parametrize("n", [3, 7])
    def test_instrumented_map_kernel_matches_formula(self, n):
        a_row = [float(j + 1) for j in range(n)]
        x = [0.5 * j - 1.0 for j in range(n)]
        assert counted_map_ops_per_row(a_row, 2.5, x) == 5 * n + 1

    def test_c_map_is_per_row_count_times_m(self):
        n, m = 4, 9
        per_row = counted_map_ops_per_row([1.0] * n, 0.0, [2.0] * n)
        assert operation_counts(n, m).c_map == per_row * m


class TestStageTimes:
    def test_unit_taus_hand_values(self):
        t = stage_times(CostParams(2, 4, tau_op=1.0, tau_tr=1.0, latency=1.0))
        assert (t.t_s, t.t_map, t.t_r, t.t_a, t.t_p) == (3.0, 44.0, 2.0, 2.0, 35.0)

    def test_full_breadth_send_time(self):
        t = stage_times(
            CostParams(2, 4, tau_op=1.0, tau_tr=1.0, latency=1.0,
                       update_breadth=BREADTH_FULL)
        )
        assert t.t_s == 14.0

    def test_times_linear_in_taus(self):
        base = CostParams(5, 12, tau_op=1.0, tau_tr=1.0, latency=1.0)
        t1 = stage_times(base)
        t2 = stage_times(CostParams(5, 12, tau_op=2.0, tau_tr=1.0, latency=1.0))
        assert t2.t_map == 2 * t1.t_map
        assert t2.t_p == 2 * t1.t_p
        assert t2.t_s == t1.t_s  # transfer-based, not op-based


class TestKMax:
    def test_hand_example(self):
        params = CostParams(100, 200, tau_op=1.0, tau_tr=1.0, latency=1.0)
        expected = math.sqrt((100_200 + 20_000) / (2 + 101 + 100 + 100))
        assert k_max(params) == pytest.approx(expected, rel=1e-12)
        assert k_max(params) == pytest.approx(19.92, abs=0.01)

    def test_full_breadth_limit_sqrt6(self):
        params = CostParams(
            10**6, 2 * 10**6, tau_op=2.5e-10, tau_tr=2.5e-10,
            update_breadth=BREADTH_FULL,
        )
        assert k_max(params) == pytest.approx(math.sqrt(6), rel=0.01)

    def test_single_breadth_sqrt_n_scaling(self):
        lo = CostParams(10**5, 2 * 10**5)
        hi = CostParams(4 * 10**5, 8 * 10**5)
        ratio = k_max(hi) / k_max(lo)
        assert ratio == pytest.approx(2.0, rel=0.03)

    @settings(max_examples=40)
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance_in_time_units(self, c):
        base = CostParams(50, 120, tau_op=1e-9, tau_tr=3e-9, latency=2e-6)
        scaled = CostParams(
            50, 120, tau_op=c * 1e-9, tau_tr=c * 3e-9, latency=c * 2e-6
        )
        assert k_max(scaled) == pytest.approx(k_max(base), rel=1e-12)

    def test_regime_separation_grows_with_n(self):
        ratios = []
        for n in (10**3, 10**4, 10**5):
            single = CostParams(n, 2 * n + 2)
            full = CostParams(n, 2 * n + 2, update_breadth=BREADTH_FULL)
            ratios.append(k_max(single) / k_max(full))
        assert ratios[0] < ratios[1] < ratios[2]


class TestSweep:
    """k_max over n on the model problem, m = 2n + 2, for both update
    regimes (``modap costmodel --n-values ... --breadth single|full``)."""

    def test_single_column_increases(self):
        singles = [k_max(CostParams(n, 2 * n + 2)) for n in (100, 1000, 10_000)]
        assert singles[0] < singles[1] < singles[2]

    def test_full_column_flat_beyond_1e3(self):
        fulls = [
            k_max(CostParams(n, 2 * n + 2, tau_op=2.5e-10, tau_tr=2.5e-10,
                             update_breadth=BREADTH_FULL))
            for n in (10**3, 10**4, 10**5)
        ]
        spread = (max(fulls) - min(fulls)) / min(fulls)
        assert spread < 0.10


def test_report_consistency():
    params = CostParams(8, 20)
    rep = report(params)
    assert rep.counts == operation_counts(8, 20)
    assert rep.times == stage_times(params)
    assert rep.k_max == k_max(params)


def test_params_validation():
    with pytest.raises(ValueError):
        CostParams(0, 1)
    with pytest.raises(ValueError):
        CostParams(1, 1, tau_op=0.0)
    with pytest.raises(ValueError):
        CostParams(1, 1, update_breadth="half")


@pytest.mark.parametrize("name", ["tau_op", "tau_tr", "latency"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1e-9])
def test_params_reject_a_constant_that_is_not_finite_and_positive(name, value):
    # an infinite tau_op used to give k_max nan, an infinite tau_tr 0.0
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        CostParams(10, 22, **{name: value})
