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

Given the data, a replicate ``g @ S`` of the (n_pad, p) real summand table
S with i.i.d. standard normal g is exactly N(0, S.T @ S), and so is ``h @ F``
for p normals h and any F with ``F.T @ F == S.T @ S``.  When n_pad > 2p
(T - 2k > 384 at the defaults) the replicates are drawn through a p x p
factor of the Gram matrix (``_bootstrap_factor``): its Cholesky factor, or,
when the Gram matrix is singular (a finite-state chain, a zero frequency),
``sqrt(w) * V.T`` from its eigendecomposition.  No factor has more than 2p
rows.  p-values keep their law but not their bits, and the observed
statistic does not change.

The replicates run in single precision (``_bootstrap_sups``): the
multipliers and the factor are rounded to float32, and the product, its
modulus, the scaling and each replicate's max are float32.  The factor
is computed in double, and so is the observed statistic ``sup_obs``,
with which each replicate sup is compared in double.  A p-value's error
is Monte Carlo error, about 0.013 at B = 300 for a p-value near 0.05,
while rounding moves a replicate sup by under 1e-6 relative, so double
precision buys nothing there.

The multiplier bootstrap for maxima needs each lag's multipliers to be
i.i.d. standard normal given the data, not independent of another lag's,
so :func:`estimate_order` draws one multiplier matrix M per trajectory and
every lag takes its multipliers from M's leading columns:
``per_lag[k - 1]`` equals
``lag_test(traj, k, cfg, children[k - 1], multipliers=M)``.  p-values keep
their law but not the bits of one draw per lag; ``lag_test`` without
``multipliers`` draws its own from its generator.

With the default kernel estimator both residual tables come from one
Gaussian kernel matrix over the length-k windows of the standardized
series, with one scalar bandwidth per (trajectory, lag); each residual
leaves its own pair out through the matrix's zeroed diagonal (see
:func:`markovorder.ccf.loo_window_residuals`), since a fit that sees its
own target memorizes it and the residuals collapse.  With
``estimator="mdn"`` they are the in-sample residuals of
:func:`markovorder.mdn.window_residuals` (fixed default hyperparameters;
measured size in its module docstring).  A statistic that is not finite
raises :class:`~markovorder.errors.NonFiniteValueError` instead of being
compared.

Separations start at q = 2 because the adjacent product (q = 1) pairs a
backward residual with a forward residual whose target state the backward
fit conditions on; that cross-moment does not vanish under the null for
dependent Markov series, so it carries no valid signal.

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
    "lag_test",
    "estimate_order",
    "batch_test",
    "trajectory_rng",
]

_MIN_CELL_LENGTH = 4  # shortest usable summand series for one separation


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


@dataclass(frozen=True)
class MarkovTestResult:
    """Outcome of the lag-k test: reject iff p_value <= alpha."""

    k: int
    sup_stat: float
    p_value: float
    reject: bool
    n_effective: int


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


@dataclass(frozen=True)
class BatchItem:
    """Per-trajectory outcome of a batch run; error is None on success."""

    trajectory_id: str
    estimate: OrderEstimate | None
    error: str | None = None

    def to_dict(self) -> dict:
        """The id, then the estimate's fields flattened in (``per_lag`` as a
        list of per-lag dicts) or the error.  Shallow copies of the fields,
        not ``dataclasses.asdict``, which deep-copies every value."""
        out: dict = {"trajectory_id": self.trajectory_id}
        if self.estimate is not None:
            out.update(vars(self.estimate),
                       per_lag=[vars(r).copy() for r in self.estimate.per_lag])
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
    mus = rng.standard_normal((M, d))
    nus = rng.standard_normal((M, d))
    return mus, nus


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


def _factor_rows(n_pad: int, p: int) -> int:
    """Rows of the bootstrap factor of an (n_pad, p) summand table: n_pad
    while it is at most 2p, else p."""
    return n_pad if n_pad <= 2 * p else p


def _bootstrap_factor(real: np.ndarray) -> np.ndarray:
    """The matrix F the bootstrap multiplies its normal rows with, one with
    ``F.T @ F == real.T @ real`` for the (n_pad, p) real summand table.

    With at most 2p rows it is ``real``.  Otherwise it is p x p, so a
    replicate costs p draws instead of n_pad: the Cholesky factor of the
    table's Gram matrix, or, when that is not positive definite,
    ``sqrt(w) * V.T`` from its eigendecomposition (eigenvalues w clipped at
    zero).
    """
    if _factor_rows(*real.shape) == real.shape[0]:
        return real
    gram = real.T @ real
    try:
        return np.linalg.cholesky(gram).T
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(gram)
        return (V * np.sqrt(np.clip(w, 0.0, None))).T


def _as_float32(multipliers: np.ndarray) -> np.ndarray:
    """The multiplier matrix as the C-contiguous float32 matrix the
    bootstrap multiplies with; no copy when it is one already."""
    return np.asarray(multipliers, dtype=np.float32, order="C")


def _bootstrap_sups(multipliers: np.ndarray, factor: np.ndarray,
                    scale: np.ndarray) -> np.ndarray:
    """The B replicate sups ``max |(g @ factor) as complex| / scale`` of the
    (B, >= r) multipliers' first r columns g, for an (r, p) factor, where
    ``scale[i]`` divides the i-th of ``scale.size`` equal blocks of moduli.

    The product, its modulus, the scaling and the max run in single
    precision on the multipliers and the factor rounded to float32 (see the
    module docstring); the caller compares the sups with the observed
    statistic in double.  A block's max, over a contiguous transposed copy,
    is taken before its division: rounding is monotone, so ``max_j fl(a_j /
    s) == fl(max_j a_j / s)`` for s > 0 and no bit moves.
    """
    boot = np.abs((_as_float32(multipliers)[:, :factor.shape[0]]
                   @ factor.astype(np.float32)).view(np.complex64))
    blocks = np.ascontiguousarray(boot.T).reshape(scale.size, -1, boot.shape[0]).max(axis=1)
    blocks /= scale.astype(np.float32)[:, None]   # a float64 divisor would run the float64 loop
    return blocks.max(axis=0)


class _Standardized(Trajectory):
    """A trajectory :func:`estimate_order` standardized once for all its
    lags; :func:`lag_test` takes its states as they are."""


def lag_test(traj: Trajectory, k: int, cfg: TestConfig,
             rng: np.random.Generator,
             multipliers: np.ndarray | None = None) -> MarkovTestResult:
    """Multiplier-bootstrap test of the k-th order Markov null.

    The trajectory is standardized internally (per trajectory), except when
    :func:`estimate_order` passes one it has already standardized.  Given the
    generator's initial state the result is bit-for-bit reproducible; the
    p-value follows the add-one rule ``(1 + #{sup_b >= sup_obs}) / (B + 1)``
    and never depends on ``cfg.alpha`` (only the reject flag does).

    ``multipliers``, a (B, width) matrix of standard normals, gives the
    bootstrap its multipliers: replicate b takes the first r entries of row
    b, for a factor of r rows (see :func:`estimate_order`).  Without it the
    bootstrap draws a (B, r) matrix from ``rng``.  A matrix that is not 2-D,
    has another row count than B or fewer columns than the factor has rows
    raises ``ValueError`` once the factor is known, and one that makes a
    replicate sup NaN or infinite raises ``NonFiniteValueError``.  The
    replicates are single precision: a matrix of any float dtype, like the
    bootstrap's own float64 draw, is rounded to float32, so a float64 matrix
    and its float32 rounding give equal results.  ``sup_stat`` is double,
    and the replicate sups are compared with it in double (see the module
    docstring).
    """
    n_eff = traj.length - k
    if n_eff < cfg.min_effective_length:
        raise TrajectoryTooShortError(
            f"T - k = {n_eff} below min_effective_length = {cfg.min_effective_length}"
        )
    if not isinstance(traj, _Standardized):
        traj = standardize(traj)
    states = traj.states
    d = states.shape[1]

    mus, nus = _draw_frequencies(d, cfg.n_freqs, rng)
    if cfg.estimator == "kernel":
        fwd_res, bwd_res = _ccf.loo_window_residuals(states, k, mus, nus)
    else:
        fwd_res, bwd_res = _mdn.window_residuals(states, k, mus, nus, rng)

    shifts = [q for q in _shift_range(k, cfg.n_shifts)
              if n_eff - q + 1 >= _MIN_CELL_LENGTH]
    if not shifts:
        raise TrajectoryTooShortError(
            f"T - k = {n_eff} leaves no usable residual separation"
        )

    M = cfg.n_freqs
    n_pad = n_eff - shifts[0] + 1
    fwd_t, bwd_t = fwd_res.T.copy(), bwd_res.T.copy()   # (windows, M)
    summands = np.zeros((n_pad, len(shifts) * M), dtype=complex)
    for i, q in enumerate(shifts):
        n_q = n_eff - q + 1
        np.multiply(fwd_t[q - 1:q - 1 + n_q], bwd_t[:n_q], out=summands[:n_q, i * M:(i + 1) * M])
    del fwd_res, bwd_res, fwd_t, bwd_t   # the bootstrap needs only the summands

    scale = np.sqrt([n_eff - q + 1 for q in shifts])   # one per shift's block of M columns
    sup_obs = float((np.abs(summands.sum(axis=0)).reshape(len(shifts), M).max(axis=1)
                     / scale).max())
    # checked before the factor, which eigh would refuse: a non-finite
    # summand makes its column's sum, and so sup_obs, non-finite
    if not np.isfinite(sup_obs):
        raise NonFiniteValueError(
            f"lag {k} test statistic is not finite (observed sup {sup_obs})"
        )

    factor = _bootstrap_factor(summands.view(float))
    del summands   # the bootstrap needs only its factor
    r = factor.shape[0]
    if multipliers is None:
        multipliers = rng.standard_normal((cfg.n_bootstrap, r))
    elif (multipliers.ndim != 2 or multipliers.shape[0] != cfg.n_bootstrap
          or multipliers.shape[1] < r):
        raise ValueError(f"multipliers has shape {multipliers.shape}, not "
                         f"{cfg.n_bootstrap} rows of at least {r} columns")
    sup_boot = _bootstrap_sups(multipliers, factor, scale)
    # a NaN sup would compare false with sup_obs, as if it were below it
    if not np.isfinite(sup_boot).all():
        raise NonFiniteValueError(f"lag {k} bootstrap replicate sups are not finite")

    # a float64 scalar, so the float32 sups are compared in float64
    n_ge = int(np.count_nonzero(sup_boot >= np.float64(sup_obs)))
    p_value = (1 + n_ge) / (cfg.n_bootstrap + 1)
    return MarkovTestResult(k=k, sup_stat=sup_obs, p_value=p_value,
                            reject=(p_value <= cfg.alpha), n_effective=n_eff)


def estimate_order(traj: Trajectory, cfg: TestConfig,
                   rng: np.random.Generator | None = None) -> OrderEstimate:
    """Estimate the Markov order as the first accepted lag in 1..k_max.

    Every lag in the search range is tested so the full p-value trace is
    available; the range ends below k_max where T - k would fall under
    ``min_effective_length`` or T - 2k, the summands of the lag's first
    separation, under ``_MIN_CELL_LENGTH``.  Each lag draws its frequencies
    from its own child of ``rng`` (``children = rng.spawn(k_max)``), and the
    lags share one bootstrap multiplier matrix ``M``, the transpose of a
    ``(width, B)`` standard normal draw from ``rng`` after the spawn,
    rounded once to the float32 the replicates are computed in.  The
    width is the most rows any lag's factor has (T - 2k while that is at
    most 2p, else p), so every lag reads M.  A lag reads only M's first r
    columns, the first r * B normals of that draw, so per-lag results do
    not depend on alpha or on k_max.  The trajectory
    is standardized once and every lag tests the same standardized states,
    so ``per_lag[k - 1]`` equals
    ``lag_test(traj, k, cfg, children[k - 1], multipliers=M)``.  Sharing M
    changes the p-values' bits, not their law (see the module docstring).

    Raises
    ------
    TrajectoryTooShortError
        If the search range holds not even lag 1.
    """
    k_eff = min(cfg.k_max, traj.length - cfg.min_effective_length,
                (traj.length - _MIN_CELL_LENGTH) // 2)
    if k_eff < 1:
        raise TrajectoryTooShortError(
            f"T = {traj.length} too short for lag 1, which needs T >= "
            f"{max(cfg.min_effective_length + 1, _MIN_CELL_LENGTH + 2)} "
            f"(min_effective_length = {cfg.min_effective_length})"
        )
    if rng is None:
        rng = trajectory_rng(cfg.rng_seed, traj.id)
    children = rng.spawn(k_eff)
    std = _Standardized(standardize(traj).states, traj.dt, id=traj.id)
    # a lag's table has T - 2k rows; drawn as (width, B), a factor's first r
    # columns are the first r * B normals of the stream whatever the width,
    # so k_max cannot move a lag
    p = 2 * cfg.n_freqs * cfg.n_shifts
    width = max(_factor_rows(traj.length - 2 * k, p) for k in range(1, k_eff + 1))
    multipliers = _as_float32(rng.standard_normal((width, cfg.n_bootstrap)).T)
    per_lag = tuple(lag_test(std, k, cfg, children[k - 1], multipliers=multipliers)
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
               jobs: int = 1, pool=None) -> list[BatchItem]:
    """Run :func:`estimate_order` over a list of trajectories.

    Per-trajectory seeds derive from ``(cfg.rng_seed, trajectory id)``, so
    the results are identical regardless of input order or parallelism.
    Data errors (:class:`MarkovOrderError`) are recorded in the returned
    items; any other exception is a program bug and propagates.  An open
    ``ProcessPoolExecutor`` as ``pool`` runs the batch and stays open.
    """
    work = [(t, cfg) for t in trajs]
    if pool is not None:
        return list(pool.map(_batch_worker, work, chunksize=1))
    if jobs <= 1 or len(work) <= 1:
        return [_batch_worker(w) for w in work]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
        return list(pool.map(_batch_worker, work, chunksize=1))
