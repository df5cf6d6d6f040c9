"""Statistical testing of the Markov property and Markov order for
multivariate time series, with car-following trajectory tooling.

Typical flow: ingest or synthesize trajectories, estimate each trajectory's
Markov order with a bootstrap-calibrated conditional-independence test, then
summarize and compare cohorts with pooled t and variance-ratio F tests.
"""

from .core import ScalingParams, Trajectory, make_trajectory, standardize, unstandardize
from .ccf import (
    KernelCcf,
    exact_ccf_discrete,
    fit_backward,
    fit_forward,
    silverman_bandwidth,
)
from .mdn import MdnCcf, MdnTrainConfig, fit_mixture_density
from .markov import (
    BatchItem,
    MarkovTestResult,
    OrderEstimate,
    TestConfig,
    batch_test,
    estimate_order,
    lag_statistic,
    lag_test,
    sample_frequencies,
    sup_lag_statistic,
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
from .synthetic import ChainSpec, VarSpec, gen_chain, gen_hidden_state, gen_var

__version__ = "0.1.0"

__all__ = [
    "Trajectory", "ScalingParams", "make_trajectory", "standardize", "unstandardize",
    "KernelCcf", "fit_forward", "fit_backward", "exact_ccf_discrete", "silverman_bandwidth",
    "MdnCcf", "MdnTrainConfig", "fit_mixture_density",
    "TestConfig", "MarkovTestResult", "OrderEstimate", "BatchItem",
    "sample_frequencies", "lag_statistic", "sup_lag_statistic", "lag_test",
    "estimate_order", "batch_test", "trajectory_rng",
    "CohortSummary", "TTestResult", "FTestResult", "summarize_orders",
    "pooled_t_test", "pooled_t_test_from_stats", "f_test", "f_test_from_stats",
    "reg_inc_beta", "t_cdf", "f_cdf",
    "VarSpec", "ChainSpec", "gen_var", "gen_chain", "gen_hidden_state",
    "__version__",
]
