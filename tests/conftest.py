import math

import numpy as np
import pytest
from scipy import integrate

from markovorder import TestConfig, Trajectory, standardize
from markovorder.ccf import loo_window_residuals
from markovorder.errors import NotStochasticError

TestConfig.__test__ = False  # a config dataclass, not a pytest test class


# -- independent distribution oracles (adaptive quadrature of densities) -----

def t_density(x: float, df: int) -> float:
    ln = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
          - 0.5 * math.log(df * math.pi)
          - (df + 1) / 2 * math.log1p(x * x / df))
    return math.exp(ln)


def t_cdf_quadrature(x: float, df: int) -> float:
    half, _ = integrate.quad(t_density, 0.0, abs(x), args=(df,), epsabs=1e-12)
    return 0.5 + half if x >= 0 else 0.5 - half


def f_density(x: float, d1: int, d2: int) -> float:
    ln = (math.lgamma((d1 + d2) / 2) - math.lgamma(d1 / 2) - math.lgamma(d2 / 2)
          + (d1 / 2) * math.log(d1 / d2) + (d1 / 2 - 1) * math.log(x)
          - (d1 + d2) / 2 * math.log1p(d1 * x / d2))
    return math.exp(ln)


def f_cdf_quadrature(x: float, d1: int, d2: int) -> float:
    val, _ = integrate.quad(f_density, 0.0, x, args=(d1, d2),
                            epsabs=1e-12, limit=200)
    return val


def exact_ccf_discrete(P, embed, freq, state_index: int) -> complex:
    """Exact one-step forward CCF ``sum_j P[i, j] exp(i freq . embed[j])`` of
    a finite-state chain at row ``state_index`` of its (S, S) row-stochastic
    transition matrix ``P``; ``embed`` is the (S, d) or (S,) array of state
    vectors.  The oracle of the kernel CCFs on simulated chains."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise NotStochasticError(f"P must be square, got shape {P.shape}")
    if (P < 0).any() or np.abs(P.sum(axis=1) - 1.0).max() > 1e-12:
        raise NotStochasticError("rows of P must be nonnegative and sum to 1 within 1e-12")
    points = np.asarray(embed, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    freq = np.atleast_1d(np.asarray(freq, dtype=float))
    return complex(P[state_index] @ np.exp(1j * (points @ freq)))


def ar1_trajectory(rho: float, T: int, seed: int, warmup: int = 300):
    """Scalar AR(1) trajectory, stationary start via warmup."""
    rng = np.random.default_rng(seed)
    n = T + warmup
    x = np.empty(n)
    e = rng.standard_normal(n)
    x[0] = e[0]
    for t in range(1, n):
        x[t] = rho * x[t - 1] + e[t]
    return Trajectory(x[warmup:][:, None], dt=1.0, id=f"ar1_{seed}")


def skip_order2_trajectory(coeff: float, T: int, seed: int, warmup: int = 400):
    """Scalar process X_{t+1} = coeff * X_{t-1} + eps (true order 2)."""
    rng = np.random.default_rng(seed)
    n = T + warmup
    x = np.empty(n)
    e = rng.standard_normal(n)
    x[:2] = e[:2]
    for t in range(2, n):
        x[t] = coeff * x[t - 2] + e[t]
    return Trajectory(x[warmup:][:, None], dt=1.0, id=f"skip2_{seed}")


def var1_trajectory(coeffs, T: int, seed: int, burn_in: int = 300):
    """VAR(1) trajectory x_t = A x_{t-1} + e_t, e ~ N(0, I), burn-in dropped."""
    A = np.asarray(coeffs, dtype=float)
    rng = np.random.default_rng(seed)
    n = T + burn_in
    e = rng.standard_normal((n, A.shape[0]))
    x = np.empty_like(e)
    x[0] = e[0]
    for t in range(1, n):
        x[t] = A @ x[t - 1] + e[t]
    return Trajectory(x[burn_in:], dt=1.0, id=f"var1_{seed}")


def iid_trajectory(T: int, d: int, seed: int):
    rng = np.random.default_rng(seed)
    return Trajectory(rng.standard_normal((T, d)), dt=1.0, id=f"iid_{seed}")


def implied_ccf(states, freqs, k: int = 1):
    """The forward and backward CCFs of a raw (T, d) series that the lag
    test's leave-one-out residuals imply at lag k, for (M, d) ``freqs``.

    Returns two (M, T - k) tables: column s of the first is conditioned on
    X_s..X_{s+k-1}, column t of the second on X_{t+1}..X_{t+k}.  The
    residuals are ``exp(i f . Z) - CCF`` on the standardized series
    ``Z = (X - mean) / std``, so the CCF of X at f is the CCF of Z at
    ``f * std`` times ``exp(i f . mean)``.
    """
    freqs = np.asarray(freqs, dtype=float)
    traj = Trajectory(states, dt=1.0)
    z = standardize(traj).states
    scaled = freqs * traj.states.std(axis=0, ddof=1)
    fwd, bwd = loo_window_residuals(z, k, scaled, scaled)
    n = z.shape[0] - k
    shift = np.exp(1j * (freqs @ traj.states.mean(axis=0)))[:, None]
    return (shift * (np.exp(1j * (scaled @ z[k:].T)) - fwd),
            shift * (np.exp(1j * (scaled @ z[:n].T)) - bwd))


def q_products(fwd, bwd, k: int):
    """The residual products the lag-k test sums at its smallest separation
    q = k + 1: forward residual at column t + k times backward at column t."""
    n_q = fwd.shape[1] - k
    return fwd[:, k:k + n_q] * bwd[:, :n_q]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
