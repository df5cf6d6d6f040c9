"""Conditional characteristic function (CCF) estimators.

A CCF is the Fourier transform of a conditional density: the forward CCF of
a series is ``E[exp(i mu . X_{t+1}) | X_t = x]`` and the backward CCF is
``E[exp(i nu . X_t) | X_{t+1} = x]``.  Both are estimated here with a
Nadaraya-Watson regression over adjacent pairs using a Gaussian product
kernel, which keeps fitting and evaluation deterministic and closed form.

The same machinery supports conditioning on a window of ``w`` consecutive
states (the window is flattened into one ``w*d``-dimensional conditioning
vector); the plain forward/backward fits are the ``w = 1`` case.

Evaluations are convex combinations of unit-modulus numbers, so the modulus
never exceeds 1 (up to rounding) and the value at zero frequency is exactly
1.  Weights are computed with a log-space softmax, so evaluation points far
from the data never under flow to 0/0.

The lag test does not go through :class:`KernelCcf`:
:func:`loo_window_residuals` computes its forward and backward leave-one-out
residuals from one kernel matrix over the windows of the series, with one
scalar bandwidth per (trajectory, lag) and leave-one-out as the zeroed
diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Trajectory
from .errors import (
    DimensionMismatchError,
    InsufficientDataError,
    NonPositiveBandwidthError,
    NotStochasticError,
)

__all__ = [
    "KernelCcf",
    "fit_forward",
    "fit_backward",
    "fit_forward_window",
    "fit_backward_window",
    "silverman_bandwidth",
    "window_embed",
    "exact_ccf_discrete",
]


def silverman_bandwidth(cond: np.ndarray) -> np.ndarray:
    """Per-dimension rule-of-thumb bandwidth 1.06 * sigma * n^(-1/(4+p)).

    ``cond`` is the (n, p) conditioning sample; sigma is its sample std.
    """
    n, p = cond.shape
    sigma = cond.std(axis=0, ddof=1) if n > 1 else np.ones(p)
    h = 1.06 * sigma * n ** (-1.0 / (4.0 + p))
    if (h <= 0).any() or not np.isfinite(h).all():
        raise NonPositiveBandwidthError(
            "auto bandwidth degenerate; a conditioning dimension is constant"
        )
    return h


def window_embed(states: np.ndarray, window: int) -> np.ndarray:
    """Stack each run of ``window`` consecutive states into one row.

    Returns a (T - window + 1, window * d) array whose row s is the
    concatenation ``[X_s, X_{s+1}, ..., X_{s+window-1}]``.
    """
    T, d = states.shape
    if window < 1 or window > T:
        raise InsufficientDataError(f"window {window} invalid for T={T}")
    cols = [states[i:T - window + 1 + i] for i in range(window)]
    return np.concatenate(cols, axis=1)


def _resolve_bandwidth(bandwidth, cond: np.ndarray) -> np.ndarray:
    p = cond.shape[1]
    if isinstance(bandwidth, str):
        if bandwidth != "auto":
            raise NonPositiveBandwidthError(f"unknown bandwidth spec {bandwidth!r}")
        return silverman_bandwidth(cond)
    h = np.asarray(bandwidth, dtype=float)
    if h.ndim == 0:
        h = np.full(p, float(h))
    if h.shape != (p,):
        raise DimensionMismatchError(f"bandwidth must have {p} entries, got shape {h.shape}")
    if (h <= 0).any() or not np.isfinite(h).all():
        raise NonPositiveBandwidthError("bandwidths must be strictly positive and finite")
    return h


@dataclass(frozen=True)
class KernelCcf:
    """Fitted Nadaraya-Watson conditional characteristic function.

    Attributes
    ----------
    direction : str
        "forward" (condition on the earlier state) or "backward".
    cond : (n, p) array
        Conditioning points (windows of ``window`` states, flattened).
    targets : (n, d) array
        Target states paired with each conditioning point.
    bandwidth : (p,) array
        Positive kernel widths per conditioning dimension.
    window : int
        Number of consecutive states in each conditioning vector.
    """

    direction: str
    cond: np.ndarray
    targets: np.ndarray
    bandwidth: np.ndarray
    window: int = 1
    kind: str = "kernel"

    @property
    def target_dim(self) -> int:
        return self.targets.shape[1]

    @property
    def cond_dim(self) -> int:
        return self.cond.shape[1]

    def weights(self, points: np.ndarray) -> np.ndarray:
        """Kernel weights of every fitted pair at each evaluation point.

        Returns an (m, n) row-stochastic matrix (log-space softmax of the
        Gaussian product kernel), m being the number of evaluation points.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.cond_dim:
            raise DimensionMismatchError(
                f"evaluation points have dimension {points.shape[1]}, fit has {self.cond_dim}"
            )
        u = points / self.bandwidth
        c = self.cond / self.bandwidth
        sq = (u * u).sum(axis=1)[:, None] + (c * c).sum(axis=1)[None, :] - 2.0 * (u @ c.T)
        logits = -0.5 * np.maximum(sq, 0.0)
        logits -= logits.max(axis=1, keepdims=True)
        w = np.exp(logits)
        w /= w.sum(axis=1, keepdims=True)
        return w

    def evaluate_many(self, freqs: np.ndarray, points: np.ndarray) -> np.ndarray:
        """CCF values for a batch of frequencies at a batch of points.

        Parameters
        ----------
        freqs : (M, d) array of frequency vectors (d = target dimension).
        points : (m, p) array of conditioning points.

        Returns
        -------
        (M, m) complex array; row k holds the CCF at ``freqs[k]`` across all
        points.  Rows whose frequency is exactly zero are exactly 1.
        """
        freqs = np.atleast_2d(np.asarray(freqs, dtype=float))
        if freqs.shape[1] != self.target_dim:
            raise DimensionMismatchError(
                f"frequencies have dimension {freqs.shape[1]}, targets have {self.target_dim}"
            )
        w = self.weights(points)
        phases = self.targets @ freqs.T                       # (n, M)
        values = (w @ np.exp(1j * phases)).T                  # (M, m)
        zero = ~freqs.any(axis=1)
        if zero.any():
            values[zero] = 1.0 + 0.0j
        return values

    def evaluate(self, freq: np.ndarray, x: np.ndarray) -> complex:
        """CCF value at one (frequency, conditioning point) pair."""
        freq = np.atleast_1d(np.asarray(freq, dtype=float))
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if freq.shape != (self.target_dim,):
            raise DimensionMismatchError(
                f"freq shape {freq.shape} does not match target dimension {self.target_dim}"
            )
        if x.shape != (self.cond_dim,):
            raise DimensionMismatchError(
                f"x shape {x.shape} does not match conditioning dimension {self.cond_dim}"
            )
        return complex(self.evaluate_many(freq[None, :], x[None, :])[0, 0])


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def fit_forward_window(states: np.ndarray, window: int = 1,
                       bandwidth="auto") -> KernelCcf:
    """Fit the one-step-ahead CCF conditioned on a window of states.

    Pairs are (window ending at s) -> X_{s+1}; there are T - window of them.
    """
    states = np.asarray(states, dtype=float)
    T = states.shape[0]
    if T - window < 1:
        raise InsufficientDataError(f"need T > window, got T={T}, window={window}")
    emb = window_embed(states, window)
    cond = emb[:-1]
    targets = states[window:]
    h = _resolve_bandwidth(bandwidth, cond)
    return KernelCcf(direction="forward", cond=_frozen(cond),
                     targets=_frozen(targets), bandwidth=_frozen(h), window=window)


def fit_backward_window(states: np.ndarray, window: int = 1,
                        bandwidth="auto") -> KernelCcf:
    """Fit the one-step-back CCF conditioned on a window of states.

    Pairs are (window starting at s) -> X_{s-1}; there are T - window of them.
    """
    states = np.asarray(states, dtype=float)
    T = states.shape[0]
    if T - window < 1:
        raise InsufficientDataError(f"need T > window, got T={T}, window={window}")
    emb = window_embed(states, window)
    cond = emb[1:]
    targets = states[:T - window]
    h = _resolve_bandwidth(bandwidth, cond)
    return KernelCcf(direction="backward", cond=_frozen(cond),
                     targets=_frozen(targets), bandwidth=_frozen(h), window=window)


def loo_window_residuals(states: np.ndarray, k: int, mus: np.ndarray,
                         nus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out forward and backward kernel CCF residuals at lag k.

    ``states`` is a standardized (T, d) series and ``mus``/``nus`` are
    (M, d) frequencies.  Returns two (M, n) complex tables, n = T - k:
    column s of the first is ``exp(i mu . X_{s+k})`` minus its CCF given the
    window X_s..X_{s+k-1}; column t of the second is ``exp(i nu . X_t)``
    minus its CCF given the window X_{t+1}..X_{t+k}.

    Both fits are Nadaraya-Watson regressions over the windows of one
    series, so they share one Gaussian kernel matrix over windows 0..n: the
    forward fit is its block [0:n, 0:n], the backward fit its block
    [1:n+1, 1:n+1], and leaving pair i out of the evaluation at window i is
    a zero diagonal.  The bandwidth is one scalar, Silverman's rule at unit
    scale ``1.06 * n^(-1/(4 + k d))``, since the states are standardized.
    """
    T, d = states.shape
    n = T - k
    M = mus.shape[0]
    u = window_embed(states, k) / (1.06 * n ** (-1.0 / (4.0 + k * d)))
    half_sq = 0.5 * (u * u).sum(axis=1)[:, None]
    ones = np.ones_like(half_sq)
    # -|u_i - u_j|^2 / 2 as one product; rounding may leave a tiny positive
    # value for coincident windows, which the row shift below absorbs.
    logits = np.hstack([u, -half_sq, ones]) @ np.hstack([u, ones, -half_sq]).T
    np.fill_diagonal(logits, -np.inf)

    # One exp, shifted by each row's max over all n+1 windows.  A block row
    # whose max lies in the column outside its block (column n forward,
    # column 0 backward) is recomputed with its own shift; otherwise a far
    # outlier's weights would underflow to 0/0.
    inner = logits[:, 1:n].max(axis=1)
    fwd_max = np.maximum(inner, logits[:, 0])
    bwd_max = np.maximum(inner, logits[:, n])
    row_max = np.maximum(fwd_max, bwd_max)
    fix_f = np.flatnonzero(fwd_max < row_max)
    fix_b = np.flatnonzero(bwd_max < row_max)
    fwd_rows = np.exp(logits[fix_f, :n] - fwd_max[fix_f, None])
    bwd_rows = np.exp(logits[fix_b, 1:] - bwd_max[fix_b, None])
    logits -= row_max[:, None]
    kern = np.exp(logits, out=logits)

    # Forward targets X_{s+k} sit on rows 0..n-1 of the left half, backward
    # targets X_t on rows 1..n of the right half; the zero row in each half
    # drops the column outside that block from the product.
    w = 2 * M + 1
    basis = np.zeros((n + 1, 2 * w))
    _phase_columns(basis[:n, :w], states[k:] @ mus.T)
    _phase_columns(basis[1:, w:], states[:n] @ nus.T)
    acc = kern @ basis
    acc[fix_f, :w] = fwd_rows @ basis[:n, :w]
    acc[fix_b, w:] = bwd_rows @ basis[1:, w:]
    fwd_res = basis[:n, :w - 1] - acc[:n, :w - 1] / acc[:n, w - 1:w]
    bwd_res = basis[1:, w:-1] - acc[1:, w:-1] / acc[1:, -1:]
    return fwd_res.view(complex).T, bwd_res.view(complex).T


def _phase_columns(out: np.ndarray, phase: np.ndarray) -> None:
    """Fill ``out`` (n, 2M+1) with cos and sin of ``phase`` (n, M),
    interleaved so that a row viewed as complex is exp(i phase), then 1."""
    M = phase.shape[1]
    out[:, 0:2 * M:2] = np.cos(phase)
    out[:, 1:2 * M:2] = np.sin(phase)
    out[:, 2 * M] = 1.0


def fit_forward(traj: Trajectory, bandwidth="auto") -> KernelCcf:
    """Forward CCF estimator over the T-1 adjacent pairs (X_t -> X_{t+1}).

    The default bandwidth is Silverman's rule per dimension,
    ``1.06 * sigma_j * (T-1)^(-1/(4+d))``; pass per-dimension widths to
    override.  Fitting is deterministic.
    """
    return fit_forward_window(traj.states, window=1, bandwidth=bandwidth)


def fit_backward(traj: Trajectory, bandwidth="auto") -> KernelCcf:
    """Backward CCF estimator over the T-1 adjacent pairs (X_{t+1} -> X_t)."""
    return fit_backward_window(traj.states, window=1, bandwidth=bandwidth)


def exact_ccf_discrete(
    P: np.ndarray,
    embed: np.ndarray | Callable[[int], np.ndarray],
    freq: np.ndarray,
    state_index: int,
) -> complex:
    """Exact one-step forward CCF of a finite-state chain.

    ``sum_j P[i, j] * exp(i freq . embed(j))`` evaluated exactly; serves as
    an oracle for the kernel estimator on simulated chains.

    Parameters
    ----------
    P : (S, S) row-stochastic transition matrix.
    embed : (S, d) array or callable mapping a state index to its d-vector.
    freq : (d,) frequency vector.
    state_index : row of P to evaluate.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise NotStochasticError(f"P must be square, got shape {P.shape}")
    if (P < 0).any() or np.abs(P.sum(axis=1) - 1.0).max() > 1e-12:
        raise NotStochasticError("rows of P must be nonnegative and sum to 1 within 1e-12")
    S = P.shape[0]
    if callable(embed):
        points = np.stack([np.atleast_1d(np.asarray(embed(j), dtype=float)) for j in range(S)])
    else:
        points = np.asarray(embed, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
    freq = np.atleast_1d(np.asarray(freq, dtype=float))
    if points.shape != (S, freq.shape[0]):
        raise DimensionMismatchError(
            f"embedding shape {points.shape} incompatible with {S} states of dimension {freq.shape[0]}"
        )
    return complex(P[state_index] @ np.exp(1j * (points @ freq)))
