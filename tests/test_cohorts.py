import numpy as np
import pytest

from markovorder import (
    f_test,
    f_test_from_stats,
    pooled_t_test,
    pooled_t_test_from_stats,
    summarize_orders,
)
from markovorder.errors import (
    EmptyCohortError,
    ZeroDenominatorVarianceError,
    ZeroPooledVarianceError,
)


class TestSummarize:
    def test_basic_arithmetic(self):
        s = summarize_orders([1, 1, 2, 3])
        assert s.n == 4
        assert s.mean == pytest.approx(1.75)
        assert s.pct_mp == pytest.approx(50.0)
        assert s.pct_homp == pytest.approx(50.0)

    def test_all_ones(self):
        s = summarize_orders([1] * 7)
        assert s.std == 0.0
        assert s.pct_mp == pytest.approx(100.0)

    def test_fifteen_of_twentyone(self):
        s = summarize_orders([1] * 15 + [2, 3, 2, 4, 2, 5])
        assert s.n == 21
        assert round(s.pct_mp, 2) == 71.43
        assert s.pct_mp + s.pct_homp == pytest.approx(100.0, abs=1e-9)

    def test_empty(self):
        with pytest.raises(EmptyCohortError):
            summarize_orders([])


class TestPooledT:
    def test_identical_cohorts(self):
        res = pooled_t_test([1, 2, 3, 4], [1, 2, 3, 4])
        assert res.t == pytest.approx(0.0, abs=1e-12)
        assert res.p_one_tailed == pytest.approx(0.5, abs=1e-12)
        assert not res.significant

    def test_reference_row_moderate(self):
        # rounded two-cohort summaries; published statistic 0.5699
        res = pooled_t_test_from_stats(2.11, 2.38, 134, 1.81, 1.29, 21)
        assert res.t == pytest.approx(0.5699, abs=0.02)
        assert res.df == 153
        assert res.p_two_tailed == pytest.approx(0.5695, abs=0.02)
        assert not res.significant

    def test_reference_row_strong(self):
        # rounded two-cohort summaries; published statistic 2.7841, p 0.0062
        res = pooled_t_test_from_stats(3.18, 3.67, 61, 1.74, 1.03, 54)
        assert res.t == pytest.approx(2.784, abs=0.01)
        assert res.df == 113
        assert res.p_two_tailed == pytest.approx(0.0062, abs=0.001)
        assert res.significant

    def test_swap_negates(self):
        a, b = [1, 2, 2, 4, 5], [1, 1, 2, 3]
        fwd = pooled_t_test(a, b)
        rev = pooled_t_test(b, a)
        assert fwd.t == pytest.approx(-rev.t, abs=1e-12)
        assert fwd.df == rev.df

    def test_location_and_scale_invariance(self):
        a, b = [1, 2, 2, 4, 5], [1, 1, 2, 3]
        base = pooled_t_test(a, b)
        shifted = pooled_t_test([v + 7 for v in a], [v + 7 for v in b])
        scaled = pooled_t_test([3 * v for v in a], [3 * v for v in b])
        assert shifted.t == pytest.approx(base.t, abs=1e-10)
        assert scaled.t == pytest.approx(base.t, abs=1e-10)

    def test_errors(self):
        with pytest.raises(EmptyCohortError):
            pooled_t_test([], [1, 2])
        with pytest.raises(EmptyCohortError):
            pooled_t_test_from_stats(1.0, 1.0, 1, 2.0, 1.0, 5)
        with pytest.raises(ZeroPooledVarianceError):
            pooled_t_test([2, 2, 2], [2, 2])


class TestFTest:
    def test_equal_variance_equal_n(self):
        res = f_test([1, 2, 3, 4, 5], [11, 12, 13, 14, 15])
        assert res.f == pytest.approx(1.0, abs=1e-12)
        assert res.cdf == pytest.approx(0.5, abs=1e-12)
        assert not res.significant

    def test_reference_row_moderate(self):
        # published statistic 3.4065, CDF 0.9987
        res = f_test_from_stats(2.38, 134, 1.29, 21)
        assert res.f == pytest.approx(3.40, abs=0.02)
        assert res.df_num == 133
        assert res.df_den == 20
        assert res.cdf == pytest.approx(0.9987, abs=0.002)
        assert res.upper_tail_prob == pytest.approx(1.0 - res.cdf, abs=1e-12)
        assert res.significant

    def test_reference_row_strong(self):
        # published statistic 12.6774
        res = f_test_from_stats(3.67, 61, 1.03, 54)
        assert res.f == pytest.approx(12.68, abs=0.05)
        assert res.significant

    def test_swap_inverts(self):
        a, b = [1, 2, 4, 8, 9], [3, 3, 4, 5]
        fwd = f_test(a, b)
        rev = f_test(b, a)
        assert fwd.f == pytest.approx(1.0 / rev.f, abs=1e-12)
        assert (fwd.df_num, fwd.df_den) == (rev.df_den, rev.df_num)

    def test_location_and_scale_invariance(self):
        a, b = [1, 2, 4, 8, 9], [3, 3, 4, 5]
        base = f_test(a, b)
        shifted = f_test([v + 5 for v in a], [v + 5 for v in b])
        scaled = f_test([2 * v for v in a], [2 * v for v in b])
        assert shifted.f == pytest.approx(base.f, abs=1e-10)
        assert scaled.f == pytest.approx(base.f, abs=1e-10)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorVarianceError):
            f_test([1, 2, 3], [4, 4, 4])

    def test_probability_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = list(rng.integers(1, 10, size=8))
            b = list(rng.integers(1, 10, size=6))
            try:
                res = f_test(a, b)
            except ZeroDenominatorVarianceError:
                continue
            assert 0.0 <= res.upper_tail_prob <= 1.0
            assert 0.0 <= res.cdf <= 1.0


@pytest.mark.parametrize("a, b", [([1, 2, 2, 4, 5], [1, 1, 2, 3]),
                                  ([1] * 15 + [2, 3, 2, 4, 2, 5], [3, 1, 7, 2, 2, 9, 1]),
                                  ([1, 2], [2, 3, 3])])
def test_raw_order_tests_equal_the_summary_tests(a, b):
    sa, sb = summarize_orders(a), summarize_orders(b)
    assert pooled_t_test(a, b) == pooled_t_test_from_stats(sa.mean, sa.std, sa.n,
                                                           sb.mean, sb.std, sb.n)
    assert f_test(a, b) == f_test_from_stats(sa.std, sa.n, sb.std, sb.n)
