"""Core trajectory types.

A trajectory is a uniformly sampled sequence of d-dimensional state vectors.
The canonical car-following state is ``[v0, v1, gap]`` (leader speed,
follower speed, inter-vehicle distance) with the follower acceleration as an
optional action series, but every operation in the package is generic in the
state dimension.

All types here are immutable value objects: arrays are copied on construction
and marked read-only, so trajectories can be shared freely between workers.
``Trajectory(...)`` is the one constructor, and ``dataclasses.replace`` the
one way to copy a trajectory with changed fields; both validate the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import (
    DegenerateDimensionError,
    DimensionMismatchError,
    LengthMismatchError,
    NonFiniteValueError,
    NonPositiveDtError,
)

__all__ = ["Trajectory", "standardize"]


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Trajectory:
    """Immutable, validated state sequence.

    Parameters
    ----------
    states : (T, d) array or nested sequence
        One row per time step; T >= 2, constant dimension, all finite.
    dt : float
        Sampling interval in seconds, > 0.
    actions : (T,) array or None
        Optional scalar action per step (canonically follower acceleration).
    id : str
        Stable identifier; drives deterministic per-trajectory seeding.
    metadata : mapping of str to str, or None
        Free-form labels (cohort, scenario, source, ground-truth order, ...);
        None reads as no labels.

    Raises
    ------
    DimensionMismatchError
        Ragged state vectors, or states that are not (T, d) with d >= 1.
    NonFiniteValueError
        NaN/Inf anywhere in states or actions.
    LengthMismatchError
        Fewer than 2 states, or actions not matching T.
    NonPositiveDtError
        dt <= 0 or non-finite.
    """

    states: np.ndarray
    dt: float
    actions: np.ndarray | None = None
    id: str = ""
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        try:
            states = np.asarray(self.states, dtype=float)
        except ValueError as exc:   # numpy refuses ragged rows
            raise DimensionMismatchError(f"states must be a (T, d) array: {exc}") from None
        if states.ndim != 2:
            raise DimensionMismatchError(
                f"states must be a (T, d) array of constant dimension, got shape {states.shape}"
            )
        if states.shape[0] < 2:
            raise LengthMismatchError(f"need at least 2 states, got {states.shape[0]}")
        if states.shape[1] < 1:
            raise DimensionMismatchError("state dimension must be >= 1")
        if not np.isfinite(states).all():
            raise NonFiniteValueError("states contain NaN or infinity")
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise NonPositiveDtError(f"dt must be > 0, got {self.dt}")
        object.__setattr__(self, "states", _frozen_array(states))

        if self.actions is not None:
            actions = np.asarray(self.actions, dtype=float)
            if actions.ndim != 1 or actions.shape[0] != states.shape[0]:
                raise LengthMismatchError(
                    f"actions length {actions.shape} does not match T={states.shape[0]}"
                )
            if not np.isfinite(actions).all():
                raise NonFiniteValueError("actions contain NaN or infinity")
            object.__setattr__(self, "actions", _frozen_array(actions))

        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "metadata", MappingProxyType(dict(self.metadata or {})))

    def __reduce__(self):
        # MappingProxyType does not pickle; rebuild through the constructor
        # so workers get a validated, frozen copy
        actions = None if self.actions is None else np.asarray(self.actions)
        return (Trajectory, (np.asarray(self.states), self.dt, actions,
                             self.id, dict(self.metadata)))

    @property
    def length(self) -> int:
        """Number of samples T."""
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        """State dimension d."""
        return self.states.shape[1]


def standardize(traj: Trajectory) -> Trajectory:
    """Shift/scale each state dimension to sample mean 0 and sample std 1.

    The sample standard deviation uses the n-1 divisor, so three points
    ``[1, 2, 3]`` standardize to exactly ``[-1, 0, 1]``.

    Raises
    ------
    DegenerateDimensionError
        If any dimension has sample std <= 1e-10.
    """
    mean = traj.states.mean(axis=0)
    std = traj.states.std(axis=0, ddof=1)
    bad = np.nonzero(std <= 1e-10)[0].tolist()
    if bad:
        raise DegenerateDimensionError(f"constant state dimension(s) {bad}")
    return replace(traj, states=(traj.states - mean) / std)
