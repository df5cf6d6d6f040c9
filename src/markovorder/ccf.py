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
zeroed diagonal), built in symmetric square tiles so that its memory
grows linearly in the series length.  A series of more than 1,024 windows
builds them in float32, a third faster at T=2000; a shorter one keeps
float64 and every bit.  The cos and sin bases of both fits'
targets come from one half-angle tangent call (:func:`_cos_sin`), because
numpy vectorizes ``tan`` but may evaluate ``cos`` and ``sin`` one element
at a time.  Each fitted CCF is a convex combination of unit-modulus
numbers, so its modulus never exceeds 1 (up to rounding), and the residual
at zero frequency is exactly 0.  :class:`KernelCcf` is the same regression
over explicit pairs, without leave-one-out: refit without each pair in turn,
it is the brute-force reference of the residuals in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import DimensionMismatchError, InsufficientDataError

__all__ = ["window_embed", "loo_window_residuals"]

_ROW_BLOCK = 512      # most windows on a side of one kernel-matrix tile
_SINGLE_ABOVE = 1024  # more windows: float32 tiles, 30% faster from T=1500 (README)
_LEAST_LOGIT = -70.0  # float32 clamp: e^-70 times a basis value is no denormal
_LEAST_NORMAL = -708.0  # float64 flush: exp below -708.4 is a denormal, which stalls dgemm


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


def _cos_sin(phase: np.ndarray, cos_out: np.ndarray, sin_out: np.ndarray) -> None:
    """Write ``cos(phase)`` and ``sin(phase)`` into ``cos_out``/``sin_out``.

    Both come from the half-angle tangent ``t = tan(phase / 2)``:
    ``cos = 2 / (1 + t^2) - 1`` and ``sin = t * 2 / (1 + t^2)``.  Halving
    is exact, ``tan(±0) = ±0`` gives exactly (1, ±0), ``tan`` is odd, so
    ``cos`` is exactly even and ``sin`` exactly odd, and the tangent of a
    double is finite (below about 1.7e16), so ``t^2`` cannot overflow.  The
    results are within about 3e-16 absolute of libm's.  ``phase`` is
    overwritten with the tangent.
    """
    t = np.tan(np.multiply(phase, 0.5, out=phase), out=phase)
    np.multiply(t, t, out=cos_out)
    cos_out += 1.0
    np.divide(2.0, cos_out, out=cos_out)
    np.multiply(t, cos_out, out=sin_out)
    cos_out -= 1.0


def _check_frequencies(mus: np.ndarray, nus: np.ndarray, d: int) -> None:
    """Raise DimensionMismatchError naming both shapes unless ``mus`` and ``nus`` are (M, d)."""
    if mus.ndim != 2 or mus.shape != nus.shape or mus.shape[1] != d:
        raise DimensionMismatchError(f"frequencies mus {mus.shape} and nus "
                                     f"{nus.shape} must both be (M, {d})")


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

    The kernel is ``exp(-|u_i - u_j|^2 / 2)`` without a shift: its logits
    are at most 0, so it cannot overflow, and it is symmetric.  It is built
    in near-equal square tiles of at most ``_ROW_BLOCK`` windows, and only
    the tiles on and above the diagonal: each tile's weights serve its rows
    and, off the diagonal, its columns too.  Working memory is linear in T,
    and a series of at most ``_ROW_BLOCK`` windows is one tile, its product
    written straight into the accumulator.  Once a window lies over 18.8
    bandwidths from the origin, float64 logits below ``_LEAST_NORMAL`` are
    set to -inf: a weight below 3.3e-308 would be a denormal, which stalls
    dgemm, and is nothing against a kept sum above 1e-280.  Above
    ``_SINGLE_ABOVE`` windows the tiles are float32: logits from float32
    windows, clamped at -70 so that no weight, nor a weight times a basis
    value, is a denormal (which stalls sgemm), float32 ``exp`` and products,
    each added into the float64 accumulator.  A window whose forward or
    backward weight sum is at most the floor is refitted in float64 with its
    logits shifted by their max: 1e-280 in float64 (a window about 36
    bandwidths or more from every other), and (n + 1) 2^24 e^-70 in float32,
    which keeps the clamped weights below one float32 rounding of a kept sum.

    The cos and sin bases of the targets come from :func:`_cos_sin`, one
    vectorized half-angle tangent at a fraction of the cost of numpy's
    ``cos`` and ``sin``.  They agree with libm's within about 3e-16
    absolute, and a zero frequency still gives exactly (1, 0).  Both fits'
    phases take one call on a contiguous (2, M, n) table, faster than on the
    basis rows' strided outputs.  Both fits' residuals are written once, into
    one complex block whose views ``[0, :, :n]`` and ``[1, :, 1:]`` are the
    tables.  ``mus`` and ``nus`` that are not both (M, d) raise
    :class:`DimensionMismatchError` (:func:`_check_frequencies`).
    """
    T, d = states.shape
    _check_frequencies(mus, nus, d)
    n = T - k
    M, kd = mus.shape[0], k * d
    # left row i is [u_i, -|u_i|^2 / 2, 1] and right_t column j is
    # [u_j, 1, -|u_j|^2 / 2]; right_t stays the transpose of a C-ordered
    # array, as BLAS sums a C-ordered one's products in another order
    left = np.empty((n + 1, kd + 2))
    bandwidth = 1.06 * n ** (-1.0 / (4.0 + kd))
    u = np.divide(window_embed(states, k), bandwidth, out=left[:, :kd])
    np.multiply((u * u).sum(axis=1), -0.5, out=left[:, kd])
    left[:, kd + 1] = 1.0
    right_t = left.take([*range(kd), kd + 1, kd], axis=1).T

    # Rows cos, sin and 1 of the forward targets X_{s+k} sit in columns
    # 0..n-1, those of the backward targets X_t in columns 1..n; the zero
    # column in each half drops the window outside that fit.
    w = 2 * M + 1
    fits = ((slice(0, w), slice(0, n)), (slice(w, 2 * w), slice(1, n + 1)))
    phase, cos, sin = np.empty((2, M, n)), np.empty((2, M, n)), np.empty((2, M, n))
    np.matmul(mus, states[k:].T, out=phase[0])
    np.matmul(nus, states[:n].T, out=phase[1])
    _cos_sin(phase, cos, sin)
    basis_t = np.zeros((2 * w, n + 1))
    for i, (rows, cols) in enumerate(fits):
        part = basis_t[rows, cols]
        part[:M], part[M:-1], part[-1] = cos[i], sin[i], 1.0
    del phase, cos, sin   # the tiles need only basis_t, and T=2000 frees 3 MB

    single = n + 1 > _SINGLE_ABOVE   # float32 copies; else the arrays themselves
    tl, tr, tb = (a.astype(np.float32 if single else float, copy=False)
                  for a in (left, right_t, basis_t))
    tiles = -(-(n + 1) // _ROW_BLOCK)
    edges = [(n + 1) * b // tiles for b in range(tiles + 1)]
    spans = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    flush = not single and 4.0 * left[:, kd].min() < _LEAST_NORMAL  # 4 min bounds every logit
    acc = np.empty_like(basis_t) if tiles == 1 else np.zeros_like(basis_t)
    for a, rows in enumerate(spans):
        for cols in spans[a:]:
            # -|u_i - u_j|^2 / 2 as one product; rounding may leave a tiny
            # positive value for coincident windows, far below overflow
            kern = tl[rows] @ tr[:, cols]
            if single:
                np.maximum(kern, _LEAST_LOGIT, out=kern)
            elif flush:
                np.copyto(kern, -np.inf, where=kern < _LEAST_NORMAL)
            if cols == rows:
                kern.flat[::kern.shape[1] + 1] = -np.inf
            np.exp(kern, out=kern)
            if tiles == 1:
                np.matmul(tb, kern.T, out=acc)
            else:
                acc[:, rows] += tb[:, cols] @ kern.T
            if cols != rows:
                acc[:, cols] += tb[:, rows] @ kern
    del tl, tr, tb, kern   # float32 copies: T=2000 frees 1 MB before the residuals

    # a weight sum not above the floor (or NaN) would come out as 0/0 or be
    # biased by the clamped weights, at most (n + 1) e^-70: refit those
    # windows with each fit's logits shifted by their max
    floor = (n + 1) * 2.0**24 * np.exp(_LEAST_LOGIT) if single else 1e-280
    sums = acc[w - 1::w]
    far = [] if sums.min() > floor else np.flatnonzero(~(sums > floor).all(axis=0))
    for lo in range(0, len(far), _ROW_BLOCK):
        block = far[lo:lo + _ROW_BLOCK]
        logits = left[block] @ right_t
        logits[np.arange(block.size), block] = -np.inf
        for rows, cols in fits:
            kern = np.exp(logits[:, cols] - logits[:, cols].max(axis=1, keepdims=True))
            acc[rows, block] = basis_t[rows, cols] @ kern.T

    # both fits' residuals basis - fitted / weight sum, in one block
    fitted, basis = acc.reshape(2, w, n + 1), basis_t.reshape(2, w, n + 1)
    np.divide(fitted[:, :-1], fitted[:, -1:], out=fitted[:, :-1])
    res = np.empty((2, M, n + 1), dtype=complex)
    np.subtract(basis[:, :M], fitted[:, :M], out=res.real)
    np.subtract(basis[:, M:-1], fitted[:, M:-1], out=res.imag)
    fwd, bwd = res[0, :, :n], res[1, :, 1:]
    if not (mus.all() and nus.all()):   # a zero frequency's residual is exactly 0
        fwd[~mus.any(axis=1)] = 0.0
        bwd[~nus.any(axis=1)] = 0.0
    return fwd, bwd

