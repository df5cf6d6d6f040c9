"""Generators for processes with known ground-truth Markov order.

These feed the calibration and power studies: linear autoregressions of a
chosen order, finite-state chains with arbitrary-order transition tensors,
and a two-regime hidden-state process whose observations are not Markov of
any finite order (it exercises the capped path of order estimation).

Everything is deterministic given the spec and a seeded generator; the
ground-truth order is recorded in trajectory metadata as ``true_order``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Trajectory
from .errors import (
    DimensionMismatchError,
    InsufficientDataError,
    NonFiniteValueError,
    NonStationarySpecError,
    NotStochasticError,
)

__all__ = ["VarSpec", "ChainSpec", "gen_var", "gen_chain", "gen_hidden_state",
           "companion_spectral_radius"]


def companion_spectral_radius(coeffs: Sequence[np.ndarray]) -> float:
    """Spectral radius of the companion matrix of lag coefficient matrices."""
    coeffs = [np.atleast_2d(np.asarray(a, dtype=float)) for a in coeffs]
    d = coeffs[0].shape[0]
    p = len(coeffs)
    top = np.concatenate(coeffs, axis=1)
    if p == 1:
        comp = top
    else:
        eye = np.eye(d * (p - 1))
        bottom = np.concatenate([eye, np.zeros((d * (p - 1), d))], axis=1)
        comp = np.concatenate([top, bottom], axis=0)
    return float(np.abs(np.linalg.eigvals(comp)).max())


@dataclass(frozen=True)
class VarSpec:
    """Linear autoregression ``X_{t+1} = sum_j A_j X_{t+1-j} + eps_t``.

    ``coeffs`` holds the lag matrices A_1..A_p (each d x d); ``noise_cov``
    is the symmetric positive-definite innovation covariance.  Construction
    rejects specs whose companion matrix has spectral radius >= 1.
    """

    coeffs: tuple
    noise_cov: np.ndarray
    burn_in: int = 200

    def __post_init__(self):
        coeffs = tuple(np.atleast_2d(np.asarray(a, dtype=float)) for a in self.coeffs)
        if not coeffs:
            raise DimensionMismatchError("need at least one lag coefficient matrix")
        d = coeffs[0].shape[0]
        if d < 1:
            raise DimensionMismatchError("the dimension must be >= 1")
        for a in coeffs:
            if a.shape != (d, d):
                raise DimensionMismatchError(f"lag matrices must all be ({d}, {d})")
        cov = np.atleast_2d(np.asarray(self.noise_cov, dtype=float))
        if cov.shape != (d, d):
            raise DimensionMismatchError(f"noise covariance must be ({d}, {d})")
        if not (np.isfinite(coeffs).all() and np.isfinite(cov).all()):
            raise NonFiniteValueError("lag matrices and noise covariance must be finite")
        if not np.allclose(cov, cov.T):
            raise DimensionMismatchError("noise covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise NonStationarySpecError("noise covariance must be positive definite")
        rho = companion_spectral_radius(coeffs)
        if rho >= 1.0:
            raise NonStationarySpecError(f"companion spectral radius {rho:.6f} >= 1")
        if self.burn_in < 0:
            raise InsufficientDataError("burn_in must be >= 0")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "noise_cov", cov)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def dim(self) -> int:
        return self.coeffs[0].shape[0]


@dataclass(frozen=True)
class ChainSpec:
    """Finite-state chain of a given order.

    ``transition`` maps the last ``order`` discrete states to a distribution
    over the next state: an array of shape ``(S,) * order + (S,)`` whose last
    axis sums to 1.  ``embedding`` maps each state index to a d-vector.
    """

    order: int
    transition: np.ndarray
    embedding: np.ndarray

    def __post_init__(self):
        trans = np.asarray(self.transition, dtype=float)
        if self.order < 1:
            raise InsufficientDataError("order must be >= 1")
        if trans.ndim != self.order + 1 or len(set(trans.shape)) != 1:
            raise NotStochasticError(
                f"transition tensor must have shape (S,)*{self.order + 1}, got {trans.shape}"
            )
        if (trans < 0).any() or not np.abs(trans.sum(axis=-1) - 1.0).max() <= 1e-12:
            raise NotStochasticError("conditional distributions must sum to 1 within 1e-12")
        emb = np.asarray(self.embedding, dtype=float)
        if emb.ndim == 1:
            emb = emb[:, None]
        if emb.shape[0] != trans.shape[0]:
            raise DimensionMismatchError("embedding rows must match the number of states")
        if not np.isfinite(emb).all():
            raise NonFiniteValueError("embedding must be finite")
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "embedding", emb)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]


def gen_var(spec: VarSpec, T: int, rng: np.random.Generator,
            dt: float = 1.0, id: str = "") -> Trajectory:
    """Simulate ``T`` post-burn-in samples of the autoregression."""
    if T < 2:
        raise InsufficientDataError(f"need T >= 2, got {T}")
    d, p = spec.dim, spec.order
    chol = np.linalg.cholesky(spec.noise_cov)
    total = spec.burn_in + T
    noise = rng.standard_normal((total + p, d)) @ chol.T
    x = np.zeros((total + p, d))
    x[:p] = noise[:p]
    for t in range(p, total + p):
        acc = noise[t].copy()
        for j, a in enumerate(spec.coeffs, start=1):
            acc += a @ x[t - j]
        x[t] = acc
    states = x[p + spec.burn_in:]
    return Trajectory(states, dt=dt, id=id, metadata={"true_order": str(p), "generator": "var"})


def gen_chain(spec: ChainSpec, T: int, rng: np.random.Generator,
              dt: float = 1.0, id: str = "") -> Trajectory:
    """Simulate the discrete chain and embed states into d-vectors."""
    if T < 2:
        raise InsufficientDataError(f"need T >= 2, got {T}")
    S, p = spec.n_states, spec.order
    idx = list(rng.integers(0, S, size=p))
    out = np.empty(T, dtype=int)
    for t in range(T):
        dist = spec.transition[tuple(idx[-p:])]
        nxt = int(rng.choice(S, p=dist))
        out[t] = nxt
        idx.append(nxt)
    states = spec.embedding[out]
    return Trajectory(states, dt=dt, id=id, metadata={"true_order": str(p), "generator": "chain"})


def gen_hidden_state(persistence: float, means: Sequence, T: int,
                     rng: np.random.Generator, dt: float = 1.0, id: str = "") -> Trajectory:
    """Two-regime hidden-state process with unit-variance Gaussian emissions.

    The hidden regime flips with probability ``1 - persistence`` each step,
    so regime runs have geometric mean length ``1 / (1 - persistence)``.
    Because only the emissions are observed, the observation sequence is in
    general not Markov of any finite order.
    """
    if not (0.0 < persistence < 1.0):
        raise InsufficientDataError(f"persistence must lie in (0, 1), got {persistence}")
    if T < 2:
        raise InsufficientDataError(f"need T >= 2, got {T}")
    mu = np.atleast_2d(np.asarray(means, dtype=float))
    if mu.shape[0] != 2:
        mu = mu.T
    if mu.shape[0] != 2:
        raise DimensionMismatchError("exactly two regime means are required")
    d = mu.shape[1]
    regime = int(rng.integers(0, 2))
    states = np.empty((T, d))
    flips = rng.random(T)
    noise = rng.standard_normal((T, d))
    for t in range(T):
        if flips[t] > persistence:
            regime = 1 - regime
        states[t] = mu[regime] + noise[t]
    return Trajectory(states, dt=dt, id=id,
                      metadata={"true_order": "none", "generator": "hidden_state"})
