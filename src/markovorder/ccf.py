"""Conditional characteristic function (CCF) estimators.

A CCF is the Fourier transform of a conditional density: the forward CCF of
a series at lag k is ``E[exp(i mu . X_{s+k}) | X_s, ..., X_{s+k-1}]`` and
the backward CCF is ``E[exp(i nu . X_t) | X_{t+1}, ..., X_{t+k}]``.  The lag
test estimates both with a Nadaraya-Watson regression over the length-k
windows of the series using a Gaussian product kernel, which keeps fitting
and evaluation deterministic and closed form.

:func:`loo_window_residuals` computes the test's forward and backward
leave-one-out residuals from one kernel matrix over the windows of the
series (one scalar bandwidth per (trajectory, lag), leave-one-out as the
zeroed diagonal), built in row blocks so that its memory grows linearly in
the series length.  Each fitted CCF is a convex combination of unit-modulus
numbers, so its modulus never exceeds 1 (up to rounding), and the residual
at zero frequency is exactly 0.  :class:`KernelCcf` is the same regression
over explicit pairs, without leave-one-out: refit without each pair in turn,
it is the brute-force reference of the residuals in the test suite.
:func:`exact_ccf_discrete` is the exact CCF of a finite-state chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, InsufficientDataError, NotStochasticError

__all__ = ["window_embed", "loo_window_residuals", "exact_ccf_discrete"]

_ROW_BLOCK = 256      # most kernel-matrix rows built and used at once


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


@dataclass(frozen=True)
class KernelCcf:
    """Nadaraya-Watson CCF over explicit (conditioning point, target) pairs.

    Attributes
    ----------
    cond : (n, p) array
        Conditioning points.
    targets : (n, d) array
        Target states paired with each conditioning point.
    bandwidth : (p,) array
        Positive kernel widths per conditioning dimension.
    """

    cond: np.ndarray
    targets: np.ndarray
    bandwidth: np.ndarray

    def weights(self, points: np.ndarray) -> np.ndarray:
        """Kernel weights of every fitted pair at each evaluation point.

        Returns an (m, n) row-stochastic matrix (log-space softmax of the
        Gaussian product kernel), m being the number of evaluation points.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.cond.shape[1]:
            raise DimensionMismatchError(
                f"evaluation points have dimension {points.shape[1]}, "
                f"conditioning points have {self.cond.shape[1]}"
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
        if freqs.shape[1] != self.targets.shape[1]:
            raise DimensionMismatchError(
                f"frequencies have dimension {freqs.shape[1]}, "
                f"targets have {self.targets.shape[1]}"
            )
        w = self.weights(points)
        phases = self.targets @ freqs.T                       # (n, M)
        values = (w @ np.exp(1j * phases)).T                  # (M, m)
        zero = ~freqs.any(axis=1)
        if zero.any():
            values[zero] = 1.0 + 0.0j
        return values


def loo_window_residuals(states: np.ndarray, k: int, mus: np.ndarray,
                         nus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out forward and backward kernel CCF residuals at lag k.

    ``states`` is a standardized (T, d) series and ``mus``/``nus`` are
    (M, d) frequencies.  Returns two (M, n) complex tables, n = T - k:
    column s of the first is ``exp(i mu . X_{s+k})`` minus its CCF given the
    window X_s..X_{s+k-1}; column t of the second is ``exp(i nu . X_t)``
    minus its CCF given the window X_{t+1}..X_{t+k}.  The row of a zero
    frequency is exactly 0.

    Both fits are Nadaraya-Watson regressions over the windows of one
    series, so they share one Gaussian kernel matrix over windows 0..n: the
    forward fit is its block [0:n, 0:n], the backward fit its block
    [1:n+1, 1:n+1], and leaving pair i out of the evaluation at window i is
    a zero diagonal.  The bandwidth is one scalar, Silverman's rule at unit
    scale ``1.06 * n^(-1/(4 + k d))``, since the states are standardized.
    Each step is row-local, so the matrix is built and used in near-equal
    blocks of at most ``_ROW_BLOCK`` rows: working memory is linear in T,
    and a series of at most ``_ROW_BLOCK`` windows is one block.
    """
    T, d = states.shape
    n = T - k
    M = mus.shape[0]
    u = window_embed(states, k) / (1.06 * n ** (-1.0 / (4.0 + k * d)))
    half_sq = 0.5 * (u * u).sum(axis=1)[:, None]
    ones = np.ones_like(half_sq)
    left = np.hstack([u, -half_sq, ones])
    right_t = np.hstack([u, ones, -half_sq]).T

    # Forward targets X_{s+k} sit on rows 0..n-1 of the left half, backward
    # targets X_t on rows 1..n of the right half; the zero row in each half
    # drops the column outside that block from the product.
    w = 2 * M + 1
    basis = np.zeros((n + 1, 2 * w))
    _phase_columns(basis[:n, :w], states[k:] @ mus.T)
    _phase_columns(basis[1:, w:], states[:n] @ nus.T)
    acc = np.empty_like(basis)
    blocks = -(-(n + 1) // _ROW_BLOCK)
    edges = [(n + 1) * b // blocks for b in range(blocks + 1)]
    for lo, hi in zip(edges, edges[1:]):
        # -|u_i - u_j|^2 / 2 as one product; rounding may leave a tiny positive
        # value for coincident windows, which the row shift below absorbs.
        logits = left[lo:hi] @ right_t
        np.fill_diagonal(logits[:, lo:], -np.inf)

        # One exp, shifted by each row's max over all n+1 windows.  A row
        # whose max lies in the one column its fit leaves out (column n
        # forward, column 0 backward) is recomputed with its own shift;
        # otherwise a far outlier's weights would underflow to 0/0.
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
        block = np.matmul(kern, basis, out=acc[lo:hi])
        block[fix_f, :w] = fwd_rows @ basis[:n, :w]
        block[fix_b, w:] = bwd_rows @ basis[1:, w:]
    fwd = (basis[:n, :w - 1] - acc[:n, :w - 1] / acc[:n, w - 1:w]).view(complex)
    bwd = (basis[1:, w:-1] - acc[1:, w:-1] / acc[1:, -1:]).view(complex)
    if not (mus.all() and nus.all()):   # a zero frequency's residual is exactly 0
        fwd[:, ~mus.any(axis=1)] = 0.0
        bwd[:, ~nus.any(axis=1)] = 0.0
    return fwd.T, bwd.T


def _phase_columns(out: np.ndarray, phase: np.ndarray) -> None:
    """Fill ``out`` (n, 2M+1) with cos and sin of ``phase`` (n, M),
    interleaved so that a row viewed as complex is exp(i phase), then 1."""
    M = phase.shape[1]
    out[:, 0:2 * M:2] = np.cos(phase)
    out[:, 1:2 * M:2] = np.sin(phase)
    out[:, 2 * M] = 1.0


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
