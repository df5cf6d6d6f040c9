"""Generators for processes with known ground-truth Markov order.

These feed the calibration and power studies: linear autoregressions of a
chosen order (:class:`VarSpec`), finite-state chains with arbitrary-order
transition tensors (:class:`ChainSpec`), and a two-regime hidden-state
process whose observations are not Markov of any finite order
(:class:`HiddenSpec`; it exercises the capped path of order estimation).
Each spec checks its parameters when it is built, and :func:`generate`
simulates any of them.

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

__all__ = ["VarSpec", "ChainSpec", "HiddenSpec", "generate", "companion_spectral_radius"]


def companion_spectral_radius(coeffs: Sequence[np.ndarray]) -> float:
    """Spectral radius of the companion matrix of lag coefficient matrices."""
    coeffs = [np.atleast_2d(np.asarray(a, dtype=float)) for a in coeffs]
    d, p = coeffs[0].shape[0], len(coeffs)
    comp = np.concatenate([np.concatenate(coeffs, axis=1), np.eye(d * (p - 1), d * p)])
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

    def _states(self, T: int, rng: np.random.Generator) -> np.ndarray:
        d, p = self.coeffs[0].shape[0], self.order
        chol = np.linalg.cholesky(self.noise_cov)
        total = self.burn_in + T
        noise = rng.standard_normal((total + p, d)) @ chol.T
        x = np.zeros((total + p, d))
        x[:p] = noise[:p]
        for t in range(p, total + p):
            acc = noise[t].copy()
            for j, a in enumerate(self.coeffs, start=1):
                acc += a @ x[t - j]
            x[t] = acc
        return x[p + self.burn_in:]


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
        if emb.ndim < 2:
            emb = emb.reshape(-1, 1)
        if emb.ndim != 2 or emb.shape[0] != trans.shape[0] or not emb.size:
            raise DimensionMismatchError("embedding must hold one non-empty row per state")
        if not np.isfinite(emb).all():
            raise NonFiniteValueError("embedding must be finite")
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "embedding", emb)

    def _states(self, T: int, rng: np.random.Generator) -> np.ndarray:
        S, p = self.transition.shape[0], self.order
        idx = list(rng.integers(0, S, size=p))
        out = np.empty(T, dtype=int)
        for t in range(T):
            dist = self.transition[tuple(idx[-p:])]
            nxt = int(rng.choice(S, p=dist))
            out[t] = nxt
            idx.append(nxt)
        return self.embedding[out]


@dataclass(frozen=True)
class HiddenSpec:
    """Two-regime hidden-state process with unit-variance Gaussian emissions.

    The hidden regime flips with probability ``1 - persistence`` each step,
    so regime runs have geometric mean length ``1 / (1 - persistence)``.
    Because only the emissions are observed, the observation sequence is in
    general not Markov of any finite order.  ``means`` holds the two
    regimes' mean vectors as rows; an array without two rows is read as
    columns, so a flat ``[-1, 1]`` means two 1-D regimes.
    """

    persistence: float
    means: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.persistence < 1.0:   # NaN fails too
            raise InsufficientDataError(f"persistence must lie in (0, 1), got {self.persistence}")
        mu = np.atleast_2d(np.asarray(self.means, dtype=float))
        if mu.shape[0] != 2:
            mu = mu.T
        if mu.ndim != 2 or mu.shape[0] != 2 or not mu.size:
            raise DimensionMismatchError("exactly two non-empty regime means are required")
        if not np.isfinite(mu).all():
            raise NonFiniteValueError("regime means must be finite")
        object.__setattr__(self, "means", mu)

    def _states(self, T: int, rng: np.random.Generator) -> np.ndarray:
        mu, d = self.means, self.means.shape[1]
        regime = int(rng.integers(0, 2))
        states = np.empty((T, d))
        flips = rng.random(T)
        noise = rng.standard_normal((T, d))
        for t in range(T):
            if flips[t] > self.persistence:
                regime = 1 - regime
            states[t] = mu[regime] + noise[t]
        return states


def generate(spec: VarSpec | ChainSpec | HiddenSpec, T: int, rng: np.random.Generator,
             dt: float = 1.0, id: str = "") -> Trajectory:
    """Simulate ``T`` samples of ``spec``'s process, after a VAR's burn-in.
    The metadata records the ``true_order`` (``"none"`` for a hidden-state
    process) and the ``generator``: ``var``, ``chain`` or ``hidden_state``."""
    if T < 2:
        raise InsufficientDataError(f"need T >= 2, got {T}")
    name = {VarSpec: "var", ChainSpec: "chain", HiddenSpec: "hidden_state"}[type(spec)]
    return Trajectory(spec._states(T, rng), dt=dt, id=id, metadata={
        "true_order": str(getattr(spec, "order", "none")), "generator": name})
