"""Markov property testing and order estimation.

The null hypothesis at lag k is that the series is k-th order Markov: the
next state's distribution depends only on the last k states.  The test is
built from conditional characteristic function (CCF) residuals:

* a forward residual ``exp(i mu . X_s) - E[exp(i mu . X_s) | last k states]``
  measures what the last k states fail to explain about X_s;
* a backward residual ``exp(i nu . X_t) - E[exp(i nu . X_t) | next k states]``
  measures the same looking backwards.

Under the k-th order null the forward residual at time t+q+k-1 is
uncorrelated with the backward residual at time t for every separation
q >= 2 (the backward residual is a function of states the forward fit
already conditions on or that lie in its past).  The observed statistic is
the sup over a set of separations and random frequency pairs of
``sqrt(n) * |mean of residual products|``; its null distribution is
approximated by a Gaussian multiplier bootstrap that reweights the summands
with i.i.d. standard normal multipliers, preserving the dependence across
frequencies and separations.  The product form is doubly robust: the
population cross-moment vanishes if either the forward or the backward CCF
estimate is correct.

The bootstrap runs in row blocks of 64 replicates, each drawing its
multipliers and keeping only the replicates' sups.  The blocks draw the
same normal stream as one (B, n) draw and give the same rows of the
product, so the p-value is bit-identical to a one-shot bootstrap while the
working set of a lag test stays small.

With the default kernel estimator both residual tables come from one
Gaussian kernel matrix over the length-k windows of the standardized
series, with one scalar bandwidth per (trajectory, lag); each residual
leaves its own pair out through the matrix's zeroed diagonal (see
:func:`markovorder.ccf.loo_window_residuals`).  A statistic that is not
finite raises :class:`~markovorder.errors.NonFiniteValueError` instead of
being compared.

Separations start at q = 2 because the adjacent product (q = 1) pairs a
backward residual with a forward residual whose target state the backward
fit conditions on; that cross-moment does not vanish under the null for
dependent Markov series, so it carries no valid signal.  The single-shift
diagnostic statistics (:func:`lag_statistic`, :func:`sup_lag_statistic`)
are still exposed for inspection and for their exact algebraic identities.

The Markov order estimate is the first lag k at which the null is accepted
(p > alpha); if no lag up to ``k_max`` is accepted the estimate is capped
at ``k_max`` and flagged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ccf as _ccf
from . import mdn as _mdn
from .core import Trajectory, standardize
from .errors import MarkovOrderError, NonFiniteValueError, TrajectoryTooShortError

__all__ = [
    "TestConfig",
    "MarkovTestResult",
    "OrderEstimate",
    "BatchItem",
    "sample_frequencies",
    "lag_statistic",
    "sup_lag_statistic",
    "lag_test",
    "estimate_order",
    "batch_test",
    "trajectory_rng",
]

_MIN_CELL_LENGTH = 4  # shortest usable summand series for one separation
_BOOT_BLOCK = 64      # multiplier bootstrap replicates drawn per product


@dataclass(frozen=True)
class TestConfig:
    """Knobs of the per-lag test and the order search.

    Attributes
    ----------
    k_max : int
        Largest order tested; orders are searched from 1 upward.
    alpha : float
        Significance level; the null at lag k is accepted iff p > alpha.
    n_freqs : int
        Number of random frequency pairs per lag.
    n_bootstrap : int
        Multiplier bootstrap replicates B; p-values live in [1/(B+1), 1].
    n_shifts : int
        Number of residual separations entering the sup (the smallest
        separation is 2 at lag 1 and k+1 at lag k; see ``_shift_range``).
    min_effective_length : int
        Smallest allowed T - k; guards kernel fits on short tails.
    rng_seed : int
        Base seed; per-trajectory seeds derive from (seed, trajectory id).
    estimator : str
        "kernel" (Nadaraya-Watson, default) or "mdn" (mixture density).
    """

    k_max: int = 10
    alpha: float = 0.05
    n_freqs: int = 32
    n_bootstrap: int = 300
    n_shifts: int = 3
    min_effective_length: int = 30
    rng_seed: int = 0
    estimator: str = "kernel"
    mdn_components: int = 3
    mdn_hidden: int = 32
    mdn_epochs: int = 200
    mdn_lr: float = 0.02

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.n_freqs < 1 or self.n_bootstrap < 1 or self.n_shifts < 1:
            raise ValueError("n_freqs, n_bootstrap and n_shifts must be >= 1")
        if self.min_effective_length < 2:
            raise ValueError("min_effective_length must be >= 2")
        if self.estimator not in ("kernel", "mdn"):
            raise ValueError(f"estimator must be 'kernel' or 'mdn', got {self.estimator!r}")

    def to_dict(self) -> dict:
        return {
            "k_max": self.k_max, "alpha": self.alpha, "n_freqs": self.n_freqs,
            "n_bootstrap": self.n_bootstrap, "n_shifts": self.n_shifts,
            "min_effective_length": self.min_effective_length,
            "rng_seed": self.rng_seed, "estimator": self.estimator,
            "mdn_components": self.mdn_components, "mdn_hidden": self.mdn_hidden,
            "mdn_epochs": self.mdn_epochs, "mdn_lr": self.mdn_lr,
        }


@dataclass(frozen=True)
class MarkovTestResult:
    """Outcome of the lag-k test: reject iff p_value <= alpha."""

    k: int
    sup_stat: float
    p_value: float
    reject: bool
    n_effective: int

    def to_dict(self) -> dict:
        return {"k": self.k, "sup_stat": self.sup_stat, "p_value": self.p_value,
                "reject": self.reject, "n_effective": self.n_effective}


@dataclass(frozen=True)
class OrderEstimate:
    """First accepted lag, with the full per-lag trace.

    ``capped`` is True when every lag in 1..k_max was rejected, in which
    case ``order == k_max``.  ``k_max`` records the effective search bound,
    which may be below the configured one for short trajectories.
    """

    order: int
    capped: bool
    per_lag: tuple
    alpha: float
    k_max: int

    def to_dict(self) -> dict:
        return {"order": self.order, "capped": self.capped, "alpha": self.alpha,
                "k_max": self.k_max,
                "per_lag": [r.to_dict() for r in self.per_lag]}


@dataclass(frozen=True)
class BatchItem:
    """Per-trajectory outcome of a batch run; error is None on success."""

    trajectory_id: str
    estimate: OrderEstimate | None
    error: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"trajectory_id": self.trajectory_id}
        if self.estimate is not None:
            est = self.estimate.to_dict()
            out.update({"alpha": est["alpha"], "order": est["order"],
                        "capped": est["capped"], "k_max": est["k_max"],
                        "per_lag": est["per_lag"]})
        if self.error is not None:
            out["error"] = self.error
        return out


def trajectory_rng(seed: int, trajectory_id: str) -> np.random.Generator:
    """Deterministic generator derived from a base seed and a trajectory id.

    The id is hashed (sha-256), so results are independent of execution
    order and of which other trajectories share the batch.
    """
    digest = hashlib.sha256(trajectory_id.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, *words])
    return np.random.default_rng(ss)


def _draw_frequencies(d: int, M: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The forward and backward frequencies ``mus``, ``nus``, each (M, d)."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    mus = rng.standard_normal((M, d))
    nus = rng.standard_normal((M, d))
    return mus, nus


def sample_frequencies(d: int, M: int, rng: np.random.Generator) -> list:
    """Draw M independent (mu, nu) frequency pairs, standard normal per
    component (states are standardized upstream, so unit scale is natural).
    """
    return list(zip(*_draw_frequencies(d, M, rng)))


def lag_statistic(traj: Trajectory, k: int, mu: np.ndarray, nu: np.ndarray,
                  forward, backward) -> complex:
    """Single-shift doubly-robust cross-residual statistic at lag k.

    ``mean over t of {exp(i mu . X_{t+k}) - phi(mu | X_{t+k-1})} *
    {exp(i nu . X_t) - psi(nu | X_{t+1})}`` where phi/psi are the fitted
    one-step forward/backward CCF estimators.  Exactly zero when either
    frequency is zero; conjugating both frequencies conjugates the value.
    """
    states = traj.states
    n_eff = traj.length - k
    if n_eff < 1:
        raise TrajectoryTooShortError(f"T - k = {n_eff} < 1")
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    fwd_vals = forward.evaluate_many(mu[None, :], states[k - 1:traj.length - 1])[0]
    first = np.exp(1j * (states[k:] @ mu)) - fwd_vals
    bwd_vals = backward.evaluate_many(nu[None, :], states[1:traj.length - k + 1])[0]
    second = np.exp(1j * (states[:n_eff] @ nu)) - bwd_vals
    return complex((first * second).mean())


def sup_lag_statistic(traj: Trajectory, k: int, freq_pairs: Sequence,
                      forward, backward) -> float:
    """``max over (mu, nu) pairs of sqrt(T-k) * |lag_statistic|``."""
    if len(freq_pairs) == 0:
        raise ValueError("freq_pairs must be nonempty")
    n_eff = traj.length - k
    scale = np.sqrt(n_eff)
    return max(scale * abs(lag_statistic(traj, k, mu, nu, forward, backward))
               for mu, nu in freq_pairs)


def _residual_tables(states: np.ndarray, k: int, mus: np.ndarray,
                     nus: np.ndarray, cfg: TestConfig,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward CCF residuals, both of shape (M, T - k).

    Column s of the forward table is the residual of state X_{s+k} given the
    window X_s..X_{s+k-1}; column t of the backward table is the residual of
    X_t given the window X_{t+1}..X_{t+k}.  Kernel evaluations leave their
    own fitted pair out; without that, the kernel fit memorizes its own
    target (completely so for long windows) and the residuals collapse.
    """
    if cfg.estimator == "kernel":
        return _ccf.loo_window_residuals(states, k, mus, nus)
    train = _mdn.MdnTrainConfig(components=cfg.mdn_components,
                                hidden=cfg.mdn_hidden,
                                epochs=cfg.mdn_epochs, lr=cfg.mdn_lr)
    fwd = _mdn.fit_window(states, window=k, direction="forward",
                          train=train, rng=rng.spawn(1)[0])
    bwd = _mdn.fit_window(states, window=k, direction="backward",
                          train=train, rng=rng.spawn(1)[0])
    n = states.shape[0] - k
    emb = _ccf.window_embed(states, k)
    fwd_res = np.exp(1j * (mus @ states[k:].T)) - fwd.evaluate_many(mus, emb[:-1])
    bwd_res = np.exp(1j * (nus @ states[:n].T)) - bwd.evaluate_many(nus, emb[1:])
    return fwd_res, bwd_res


def _shift_range(k: int, n_shifts: int) -> range:
    """Residual separations probed by the lag-k test: q = k+1, k+2, ...

    At separation q the forward and backward conditioning windows share
    ``k - q + 2`` states; estimation errors of the two fits are positively
    correlated at shared windows, which inflates the observed statistic
    under the null.  Starting at q = k+1 caps the overlap at one state
    while keeping the smallest separations, which carry most of the power
    against next-order alternatives.
    """
    return range(k + 1, k + 1 + n_shifts)


class _Standardized(Trajectory):
    """A trajectory :func:`estimate_order` standardized once for all its
    lags; :func:`lag_test` takes its states as they are."""


def lag_test(traj: Trajectory, k: int, cfg: TestConfig,
             rng: np.random.Generator) -> MarkovTestResult:
    """Multiplier-bootstrap test of the k-th order Markov null.

    The trajectory is standardized internally (per trajectory), except when
    :func:`estimate_order` passes one it has already standardized.  Given the
    generator's initial state the result is bit-for-bit reproducible; the
    p-value follows the add-one rule ``(1 + #{sup_b >= sup_obs}) / (B + 1)``
    and never depends on ``cfg.alpha`` (only the reject flag does).
    """
    n_eff = traj.length - k
    if n_eff < cfg.min_effective_length:
        raise TrajectoryTooShortError(
            f"T - k = {n_eff} below min_effective_length = {cfg.min_effective_length}"
        )
    if not isinstance(traj, _Standardized):
        traj, _ = standardize(traj)
    states = traj.states
    d = states.shape[1]

    mus, nus = _draw_frequencies(d, cfg.n_freqs, rng)
    fwd_res, bwd_res = _residual_tables(states, k, mus, nus, cfg, rng)

    shifts = [q for q in _shift_range(k, cfg.n_shifts)
              if n_eff - q + 1 >= _MIN_CELL_LENGTH]
    if not shifts:
        raise TrajectoryTooShortError(
            f"T - k = {n_eff} leaves no usable residual separation"
        )

    M = cfg.n_freqs
    n_pad = n_eff - shifts[0] + 1
    summands = np.zeros((n_pad, len(shifts) * M), dtype=complex)
    lengths = np.empty(len(shifts) * M)
    for i, q in enumerate(shifts):
        n_q = n_eff - q + 1
        block = (fwd_res[:, q - 1:q - 1 + n_q] * bwd_res[:, :n_q]).T   # (n_q, M)
        summands[:n_q, i * M:(i + 1) * M] = block
        lengths[i * M:(i + 1) * M] = n_q

    scale = np.sqrt(lengths)
    sup_obs = float(np.max(np.abs(summands.sum(axis=0)) / scale))

    # row blocks: the same normal stream and product rows as one (B, n_pad) draw
    sup_boot = np.empty(cfg.n_bootstrap)
    real = summands.view(float)
    for lo in range(0, cfg.n_bootstrap, _BOOT_BLOCK):
        rows = min(_BOOT_BLOCK, cfg.n_bootstrap - lo)
        boot = (rng.standard_normal((rows, n_pad)) @ real).view(complex)
        sup_boot[lo:lo + rows] = np.max(np.abs(boot) / scale, axis=1)
    if not (np.isfinite(sup_obs) and np.isfinite(sup_boot).all()):
        raise NonFiniteValueError(
            f"lag {k} test statistic is not finite (observed sup {sup_obs})"
        )

    n_ge = int(np.count_nonzero(sup_boot >= sup_obs))
    p_value = (1 + n_ge) / (cfg.n_bootstrap + 1)
    return MarkovTestResult(k=k, sup_stat=sup_obs, p_value=p_value,
                            reject=(p_value <= cfg.alpha), n_effective=n_eff)


def estimate_order(traj: Trajectory, cfg: TestConfig,
                   rng: np.random.Generator | None = None) -> OrderEstimate:
    """Estimate the Markov order as the first accepted lag in 1..k_max.

    Every lag in the (possibly length-reduced) search range is tested so the
    full p-value trace is available; each lag consumes an independent child
    generator, so per-lag p-values do not depend on alpha or on how many
    lags a caller chooses to inspect.  The trajectory is standardized once
    and every lag tests the same standardized states, so
    ``per_lag[k - 1]`` equals ``lag_test(traj, k, cfg, children[k - 1])``.

    Raises
    ------
    TrajectoryTooShortError
        If even lag 1 leaves fewer than ``min_effective_length`` samples.
    """
    k_eff = min(cfg.k_max, traj.length - cfg.min_effective_length)
    if k_eff < 1:
        raise TrajectoryTooShortError(
            f"T = {traj.length} too short for lag 1 with "
            f"min_effective_length = {cfg.min_effective_length}"
        )
    if rng is None:
        rng = trajectory_rng(cfg.rng_seed, traj.id)
    children = rng.spawn(k_eff)
    std = _Standardized(standardize(traj)[0].states, traj.dt, id=traj.id)
    per_lag = tuple(lag_test(std, k, cfg, children[k - 1])
                    for k in range(1, k_eff + 1))
    order = next((r.k for r in per_lag if not r.reject), None)
    capped = order is None
    return OrderEstimate(order=k_eff if capped else order, capped=capped,
                         per_lag=per_lag, alpha=cfg.alpha, k_max=k_eff)


def _batch_worker(args) -> BatchItem:
    traj, cfg = args
    try:
        est = estimate_order(traj, cfg)
        return BatchItem(trajectory_id=traj.id, estimate=est)
    except MarkovOrderError as exc:  # data errors are recorded per item
        return BatchItem(trajectory_id=traj.id, estimate=None,
                         error=f"{type(exc).__name__}: {exc}")


def batch_test(trajs: Sequence[Trajectory], cfg: TestConfig,
               jobs: int = 1) -> list[BatchItem]:
    """Run :func:`estimate_order` over a list of trajectories.

    Per-trajectory seeds derive from ``(cfg.rng_seed, trajectory id)``, so
    the results are identical regardless of input order or parallelism.
    Data errors (:class:`MarkovOrderError`) are recorded in the returned
    items; any other exception is a program bug and propagates.
    """
    work = [(t, cfg) for t in trajs]
    if jobs <= 1 or len(work) <= 1:
        return [_batch_worker(w) for w in work]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_batch_worker, work, chunksize=1))
