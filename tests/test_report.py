import json

import numpy as np
import pytest

from markovorder.cohorts import CohortSummary, f_test, pooled_t_test, summarize_orders
from markovorder.errors import EmptyCohortError, OutOfRangeOrderError
from markovorder.report import (
    boxplot_stats,
    kde_density,
    order_histogram,
    render_summary,
    write_report_files,
)


class TestHistogram:
    def test_counts(self):
        h = order_histogram([1, 1, 2], 10)
        assert h.counts == (2, 1) + (0,) * 8
        assert h.frequencies[0] == pytest.approx(2 / 3)

    def test_empty(self):
        h = order_histogram([], 10)
        assert h.counts == (0,) * 10
        assert h.frequencies == (0.0,) * 10

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeOrderError):
            order_histogram([11], 10)

    def test_partition_matches_summary(self):
        orders = [1, 1, 1, 2, 4, 4, 7]
        h = order_histogram(orders, 10)
        assert sum(h.counts) == len(orders)
        s = summarize_orders(orders)
        assert s.pct_mp == pytest.approx(100.0 * h.counts[0] / len(orders))
        assert sum(h.frequencies) == pytest.approx(1.0, abs=1e-9)


class TestBoxStats:
    def test_three_points_type7(self):
        b = boxplot_stats([1, 2, 3])
        assert (b.q1, b.median, b.q3) == (1.5, 2.0, 2.5)
        assert b.outliers == ()

    def test_all_equal(self):
        b = boxplot_stats([4, 4, 4, 4])
        assert b.min == b.q1 == b.median == b.q3 == b.max == 4.0
        assert b.outliers == ()

    def test_outlier_with_zero_iqr(self):
        b = boxplot_stats([1, 1, 1, 1, 10])
        assert b.outliers == (10.0,)
        assert b.max == 1.0

    def test_fence_invariant(self):
        rng = np.random.default_rng(1)
        data = rng.integers(1, 10, size=40).astype(float).tolist() + [40.0]
        b = boxplot_stats(data)
        iqr = b.q3 - b.q1
        for v in b.outliers:
            assert v < b.q1 - 1.5 * iqr or v > b.q3 + 1.5 * iqr
        assert b.q1 <= b.median <= b.q3

    def test_empty(self):
        with pytest.raises(EmptyCohortError):
            boxplot_stats([])


class TestRender:
    def cohorts(self):
        return {"av": CohortSummary(n=21, mean=1.81, std=1.29,
                                    pct_mp=71.43, pct_homp=28.57),
                "hv": CohortSummary(n=134, mean=2.11, std=2.38,
                                    pct_mp=60.44, pct_homp=39.56)}

    def test_single_cohort_row(self):
        out = render_summary({"av": summarize_orders([1, 1, 2])}, format="markdown")
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header, rule, one data row

    def test_deterministic(self):
        a = render_summary(self.cohorts(), format="csv")
        b = render_summary(self.cohorts(), format="csv")
        assert a == b

    def test_reference_row_formatting(self):
        out = render_summary(self.cohorts(), format="markdown")
        assert "| av | 21 | 1.81 | 1.29 | 71.43 | 28.57 |" in out

    def test_csv_and_json_formats(self):
        orders_a, orders_b = [1, 1, 2, 3], [1, 2, 2, 5, 7]
        cohorts = {"a": summarize_orders(orders_a), "b": summarize_orders(orders_b)}
        tests = {"t_test": pooled_t_test(orders_a, orders_b), "f_test": f_test(orders_a, orders_b)}
        csv_text = render_summary(cohorts, tests, format="csv")
        assert csv_text.startswith("cohort,n,mean_order,std_order,pct_mp,pct_homp")
        payload = json.loads(render_summary(cohorts, tests, format="json"))
        assert set(payload["cohorts"]) == {"a", "b"}
        assert payload["t_test"]["df"] == 7 and payload["f_test"]["df_num"] == 3

    def test_failed_test_has_a_json_entry_and_no_row(self):
        orders_a, orders_b = [1, 1, 2, 3], [1, 2, 2, 5, 7]
        cohorts = {"a": summarize_orders(orders_a), "b": summarize_orders(orders_b)}
        tests = {"t_test": pooled_t_test(orders_a, orders_b),
                 "f_test": {"error": "denominator cohort variance is zero"}}
        assert render_summary(cohorts, tests, format="markdown") == (
            "| cohort | n | mean_order | std_order | pct_mp | pct_homp |\n"
            "|---|---|---|---|---|---|\n"
            "| a | 4 | 1.75 | 0.96 | 50.00 | 50.00 |\n"
            "| b | 5 | 3.40 | 2.51 | 20.00 | 80.00 |\n"
            "\n"
            "| test | statistic | p_upper | p_alt | significant |\n"
            "|---|---|---|---|---|\n"
            "| t | -1.2309 | 0.8710 | 0.2581 | no |\n")
        assert render_summary(cohorts, tests, format="csv") == (
            "cohort,n,mean_order,std_order,pct_mp,pct_homp\n"
            "a,4,1.75,0.96,50.00,50.00\n"
            "b,5,3.40,2.51,20.00,80.00\n"
            "test,statistic,p_upper,p_alt,significant\n"
            "t,-1.2309,0.8710,0.2581,no\n")
        payload = json.loads(render_summary(cohorts, tests, format="json"))
        assert payload["f_test"] == {"error": "denominator cohort variance is zero"}
        assert payload["t_test"]["t"] == pytest.approx(-1.2309, abs=1e-4)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_summary(self.cohorts(), format="yaml")


def test_kde_density_integrates_to_one():
    orders = [1, 1, 2, 3, 3, 3, 5]
    grid = np.linspace(-5, 12, 2000)
    dens = kde_density(orders, grid)
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)


def test_write_report_files(tmp_path):
    orders = {"av": [1, 1, 1, 2], "hv": [1, 2, 3, 5, 9]}
    cohorts = {k: summarize_orders(v) for k, v in orders.items()}
    tests = {"t_test": pooled_t_test(orders["av"], orders["hv"])}
    written = write_report_files(tmp_path, cohorts, orders, tests, k_max=10)
    names = {p.name for p in written}
    assert {"summary.md", "summary.csv", "summary.json",
            "histogram_av.csv", "histogram_hv.csv",
            "box_av.json", "box_hv.json"} <= names
    hist = (tmp_path / "histogram_hv.csv").read_text().splitlines()
    assert hist[0] == "order,count,frequency,density"
    assert len(hist) == 11
    box = json.loads((tmp_path / "box_hv.json").read_text())
    assert box["q1"] <= box["median"] <= box["q3"]
