"""Summary artifacts for batches of order estimates.

Produces the numbers behind the usual presentation artifacts — per-cohort
summary tables, order histograms with a smoothed density, and box-plot
statistics — as plain data (markdown/CSV/JSON), never images.  Rendering is
pure and locale-independent: fixed column order, decimal points, and the
conventional precisions (2 decimals for orders and percentages, 4 for test
statistics).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cohorts import CohortSummary, FTestResult, TTestResult
from .errors import EmptyCohortError, OutOfRangeOrderError

__all__ = ["HistogramSpec", "BoxStats", "order_histogram", "boxplot_stats",
           "kde_density", "render_summary", "write_report_files"]


@dataclass(frozen=True)
class HistogramSpec:
    """Integer order histogram over bins 1..k_max."""

    k_max: int
    counts: tuple
    frequencies: tuple


@dataclass(frozen=True)
class BoxStats:
    """Five-number box summary with 1.5*IQR outlier flagging.

    Quartiles use linear interpolation between closest ranks (the "type 7"
    convention); whiskers are the data extremes inside
    ``[q1 - 1.5*IQR, q3 + 1.5*IQR]`` and everything outside is an outlier.
    """

    min: float
    q1: float
    median: float
    q3: float
    max: float
    outliers: tuple


def order_histogram(orders: Sequence[int], k_max: int) -> HistogramSpec:
    """Exact integer counts of orders per bin 1..k_max.

    Raises :class:`OutOfRangeOrderError` for any order outside that range.
    An empty input yields all-zero counts.
    """
    counts = [0] * k_max
    for v in orders:
        if not (1 <= v <= k_max) or int(v) != v:
            raise OutOfRangeOrderError(f"order {v} outside 1..{k_max}")
        counts[int(v) - 1] += 1
    n = len(orders)
    freqs = [c / n for c in counts] if n else [0.0] * k_max
    return HistogramSpec(k_max=k_max, counts=tuple(counts), frequencies=tuple(freqs))


def boxplot_stats(orders: Sequence[float]) -> BoxStats:
    """Box-plot summary of a nonempty sample (see :class:`BoxStats`)."""
    if len(orders) == 0:
        raise EmptyCohortError("cannot compute box statistics of an empty sample")
    data = np.sort(np.asarray(orders, dtype=float))
    q1, med, q3 = (float(np.percentile(data, p)) for p in (25, 50, 75))
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = data[(data >= lo) & (data <= hi)]
    outliers = tuple(float(v) for v in data[(data < lo) | (data > hi)])
    return BoxStats(min=float(inside[0]), q1=q1, median=med, q3=q3,
                    max=float(inside[-1]), outliers=outliers)


def kde_density(orders: Sequence[float], grid: Sequence[float]) -> np.ndarray:
    """Gaussian kernel density of the orders on a grid, Silverman bandwidth.

    Returns zeros for a single-valued sample whose spread is zero (the
    density would be a point mass).
    """
    data = np.asarray(orders, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if data.size == 0:
        raise EmptyCohortError("cannot compute a density of an empty sample")
    sigma = data.std(ddof=1) if data.size > 1 else 0.0
    if sigma <= 0:
        return np.zeros_like(grid)
    h = 1.06 * sigma * data.size ** (-1 / 5)
    z = (grid[:, None] - data[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (data.size * h * math.sqrt(2 * math.pi))


def _fmt(value: float, places: int) -> str:
    return f"{value:.{places}f}"


def _comparison_row(comp) -> list[str]:
    if isinstance(comp, TTestResult):
        return ["t", _fmt(comp.t, 4), _fmt(comp.p_one_tailed, 4),
                _fmt(comp.p_two_tailed, 4), "yes" if comp.significant else "no"]
    if isinstance(comp, FTestResult):
        return ["F", _fmt(comp.f, 4), _fmt(comp.upper_tail_prob, 4),
                _fmt(comp.cdf, 4), "yes" if comp.significant else "no"]
    raise TypeError(f"unsupported comparison {type(comp).__name__}")


def render_summary(cohorts: Mapping[str, CohortSummary],
                   tests: Mapping[str, object] | None = None, format: str = "markdown") -> str:
    """Render per-cohort rows and comparison rows as markdown, CSV or JSON.

    ``tests`` maps a test's name (``t_test``, ``f_test``) to its result or,
    for a test the cohorts make degenerate, to ``{"error": message}``.
    Cohort rows carry mean/std of the order (2 decimals) and %MP / %HOMP
    (2 decimals); comparison rows carry the statistic and probabilities
    (4 decimals), and a failed test has none.  The JSON holds each test
    under its name: its result's fields, or the error.  Output is
    deterministic for identical inputs.
    """
    tests = tests or {}
    if format == "json":
        return json.dumps({
            "cohorts": {label: asdict(s) for label, s in cohorts.items()},
            **{name: c if isinstance(c, dict) else asdict(c) for name, c in tests.items()},
        }, indent=2, sort_keys=True) + "\n"

    tables = [(["cohort", "n", "mean_order", "std_order", "pct_mp", "pct_homp"],
               [[label, str(s.n), _fmt(s.mean, 2), _fmt(s.std, 2),
                 _fmt(s.pct_mp, 2), _fmt(s.pct_homp, 2)] for label, s in cohorts.items()])]
    comp_rows = [_comparison_row(c) for c in tests.values() if not isinstance(c, dict)]
    if comp_rows:
        tables.append((["test", "statistic", "p_upper", "p_alt", "significant"], comp_rows))
    if format == "csv":
        return "".join(",".join(row) + "\n" for header, rows in tables for row in [header, *rows])
    if format == "markdown":   # a blank line between the tables
        return "\n".join(f"| {' | '.join(header)} |\n" + "|---" * len(header) + "|\n"
                         + "".join(f"| {' | '.join(row)} |\n" for row in rows)
                         for header, rows in tables)
    raise ValueError(f"unknown format {format!r}")


def write_report_files(out_dir: str | Path,
                       cohorts: Mapping[str, CohortSummary],
                       orders_by_cohort: Mapping[str, Sequence[int]],
                       tests: Mapping[str, object] | None = None,
                       k_max: int = 10) -> list[Path]:
    """Write summary.{md,csv,json} (``tests`` as in :func:`render_summary`),
    histogram_<cohort>.csv and box_<cohort>.json; returns the written
    paths.  An order outside 1..k_max raises :class:`OutOfRangeOrderError`
    before anything is written."""
    hists = {label: order_histogram(orders, k_max) for label, orders in orders_by_cohort.items()}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt, name in (("markdown", "summary.md"), ("csv", "summary.csv"),
                      ("json", "summary.json")):
        p = out_dir / name
        p.write_text(render_summary(cohorts, tests, format=fmt))
        written.append(p)
    for label, orders in orders_by_cohort.items():
        hist = hists[label]
        centers = np.arange(1, k_max + 1, dtype=float)
        density = kde_density(orders, centers) if len(orders) else np.zeros(k_max)
        p = out_dir / f"histogram_{label}.csv"
        lines = ["order,count,frequency,density"]
        lines += [f"{int(c)},{hist.counts[i]},{hist.frequencies[i]!r},{density[i]!r}"
                  for i, c in enumerate(centers)]
        p.write_text("\n".join(lines) + "\n")
        written.append(p)
        if len(orders):
            p = out_dir / f"box_{label}.json"
            p.write_text(json.dumps(asdict(boxplot_stats(orders)),
                                    indent=2, sort_keys=True) + "\n")
            written.append(p)
    return written
