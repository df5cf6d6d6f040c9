"""Cohort-level comparison of Markov-order distributions.

Two cohorts of per-trajectory orders (e.g. automated vs. human-driven) are
summarized and compared with a pooled two-sample t test on the means and an
F test on the variances.

Conventions, chosen once and documented here:

* ``p_one_tailed`` is ``1 - CDF_t(t, df)``, the upper tail of the observed t.
* ``p_two_tailed`` is ``2 * (1 - CDF_t(|t|, df))``.  Published comparison
  tables for this kind of analysis typically report the two-tailed value and
  then halve it for a directional decision; both are exposed so either rule
  can be applied.
* The t decision flag is directional: significant iff ``t > 0`` and the
  one-tailed p is below 0.05 (first cohort mean greater than the second).
* The F test reports both the upper tail probability and the CDF value;
  significant iff the upper tail is below 0.05 (first cohort more dispersed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    EmptyCohortError,
    ZeroDenominatorVarianceError,
    ZeroPooledVarianceError,
)
from .special import f_cdf, t_cdf

__all__ = [
    "CohortSummary",
    "TTestResult",
    "FTestResult",
    "summarize_orders",
    "pooled_t_test",
    "pooled_t_test_from_stats",
    "f_test",
    "f_test_from_stats",
]

T_ALPHA = 0.05
F_ALPHA = 0.05


@dataclass(frozen=True)
class CohortSummary:
    """Markov-order distribution summary for one cohort.

    ``pct_mp`` is the percentage of trajectories with order exactly 1 and
    ``pct_homp`` the percentage with order above 1; they sum to 100.
    """

    n: int
    mean: float
    std: float
    pct_mp: float
    pct_homp: float


@dataclass(frozen=True)
class TTestResult:
    """Pooled two-sample t test outcome (first cohort minus second)."""

    t: float
    df: int
    p_one_tailed: float
    p_two_tailed: float
    significant: bool


@dataclass(frozen=True)
class FTestResult:
    """Variance-ratio F test outcome (first cohort variance over second)."""

    f: float
    df_num: int
    df_den: int
    upper_tail_prob: float
    cdf: float
    significant: bool


def summarize_orders(orders: Sequence[int]) -> CohortSummary:
    """Mean, sample std (n-1 divisor), and MP/HOMP percentages.

    Raises
    ------
    EmptyCohortError
        If ``orders`` is empty.
    """
    if len(orders) == 0:
        raise EmptyCohortError("cannot summarize an empty cohort")
    values = [float(v) for v in orders]
    n = len(values)
    mean = sum(values) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
    n_mp = sum(1 for v in orders if v == 1)
    pct_mp = 100.0 * n_mp / n
    return CohortSummary(n=n, mean=mean, std=std, pct_mp=pct_mp, pct_homp=100.0 - pct_mp)


def pooled_t_test_from_stats(
    mean_a: float, std_a: float, n_a: int,
    mean_b: float, std_b: float, n_b: int,
) -> TTestResult:
    """Pooled t test from summary statistics (mean, sample std, count).

    The statistic is ``(mean_a - mean_b) / (s_p * sqrt(1/n_a + 1/n_b))`` with
    the pooled standard deviation ``s_p`` and ``df = n_a + n_b - 2``.
    """
    if n_a < 2 or n_b < 2:
        raise EmptyCohortError(f"both cohorts need n >= 2, got {n_a} and {n_b}")
    df = n_a + n_b - 2
    pooled_var = ((n_a - 1) * std_a ** 2 + (n_b - 1) * std_b ** 2) / df
    if pooled_var <= 0:
        raise ZeroPooledVarianceError("pooled variance is zero")
    sp = math.sqrt(pooled_var)
    t = (mean_a - mean_b) / (sp * math.sqrt(1.0 / n_a + 1.0 / n_b))
    p_one = 1.0 - t_cdf(t, df)
    p_two = 2.0 * (1.0 - t_cdf(abs(t), df))
    return TTestResult(t=t, df=df, p_one_tailed=p_one, p_two_tailed=p_two,
                       significant=(t > 0 and p_one < T_ALPHA))


def pooled_t_test(orders_a: Sequence[int], orders_b: Sequence[int]) -> TTestResult:
    """Pooled t test on raw per-trajectory orders (first minus second)."""
    a, b = summarize_orders(orders_a), summarize_orders(orders_b)
    return pooled_t_test_from_stats(a.mean, a.std, a.n, b.mean, b.std, b.n)


def f_test_from_stats(std_a: float, n_a: int, std_b: float, n_b: int) -> FTestResult:
    """F test from summary statistics: ``F = var_a / var_b``.

    Degrees of freedom are ``n_a - 1`` and ``n_b - 1``.
    """
    if n_a < 2 or n_b < 2:
        raise EmptyCohortError(f"both cohorts need n >= 2, got {n_a} and {n_b}")
    if std_b <= 0:
        raise ZeroDenominatorVarianceError("denominator cohort variance is zero")
    f = std_a ** 2 / std_b ** 2
    df_num = n_a - 1
    df_den = n_b - 1
    cdf = f_cdf(f, df_num, df_den) if f > 0 else 0.0
    upper = 1.0 - cdf
    return FTestResult(f=f, df_num=df_num, df_den=df_den,
                       upper_tail_prob=upper, cdf=cdf,
                       significant=(upper < F_ALPHA))


def f_test(orders_a: Sequence[int], orders_b: Sequence[int]) -> FTestResult:
    """F test on raw per-trajectory orders (first variance over second)."""
    a, b = summarize_orders(orders_a), summarize_orders(orders_b)
    return f_test_from_stats(a.std, a.n, b.std, b.n)
