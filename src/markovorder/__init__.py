"""Statistical testing of the Markov property and Markov order for
multivariate time series, with car-following trajectory tooling.

Typical flow: ingest trajectories or synthesize them with ``generate`` from a
``VarSpec``, ``ChainSpec`` or ``HiddenSpec``, estimate each trajectory's
Markov order with a bootstrap-calibrated conditional-independence test, then
summarize and compare cohorts with pooled t and variance-ratio F tests.
"""

from .core import Trajectory, standardize
from .markov import (
    BatchItem,
    MarkovTestResult,
    OrderEstimate,
    TestConfig,
    batch_test,
    estimate_order,
    lag_test,
    trajectory_rng,
)
from .cohorts import (
    CohortSummary,
    FTestResult,
    TTestResult,
    f_test,
    f_test_from_stats,
    pooled_t_test,
    pooled_t_test_from_stats,
    summarize_orders,
)
from .special import f_cdf, reg_inc_beta, t_cdf
from .synthetic import ChainSpec, HiddenSpec, VarSpec, generate

__version__ = "0.1.0"

__all__ = [
    "Trajectory", "standardize",
    "TestConfig", "MarkovTestResult", "OrderEstimate", "BatchItem",
    "lag_test", "estimate_order", "batch_test", "trajectory_rng",
    "CohortSummary", "TTestResult", "FTestResult", "summarize_orders",
    "pooled_t_test", "pooled_t_test_from_stats", "f_test", "f_test_from_stats",
    "reg_inc_beta", "t_cdf", "f_cdf",
    "VarSpec", "ChainSpec", "HiddenSpec", "generate",
    "__version__",
]
