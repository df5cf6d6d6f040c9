import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovorder import Trajectory, standardize
from markovorder.errors import (
    DegenerateDimensionError,
    DimensionMismatchError,
    LengthMismatchError,
    NonFiniteValueError,
    NonPositiveDtError,
)


def test_constructor_echo():
    traj = Trajectory([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dt=1.0)
    assert traj.length == 3
    assert traj.dim == 3
    assert traj.dt == 1.0


def test_ragged_states_rejected():
    with pytest.raises(DimensionMismatchError):
        Trajectory([[1, 2, 3], [4, 5, 6], [7, 8]], dt=1.0)


def test_nan_state_rejected():
    with pytest.raises(NonFiniteValueError):
        Trajectory([[1.0, np.nan], [2.0, 3.0]], dt=1.0)


def test_inf_action_rejected():
    with pytest.raises(NonFiniteValueError):
        Trajectory([[1.0], [2.0]], dt=1.0, actions=[0.0, np.inf])


def test_action_length_must_match():
    with pytest.raises(LengthMismatchError):
        Trajectory([[1.0], [2.0]], dt=1.0, actions=[0.0])


@pytest.mark.parametrize("dt", [0.0, -1.0, np.nan])
def test_bad_dt_rejected(dt):
    with pytest.raises(NonPositiveDtError):
        Trajectory([[1.0], [2.0]], dt=dt)


def test_too_few_states():
    with pytest.raises(LengthMismatchError):
        Trajectory([[1.0]], dt=1.0)


def test_none_metadata_reads_as_empty():
    assert dict(Trajectory([[1.0], [2.0]], dt=1.0, metadata=None).metadata) == {}


def test_states_are_immutable():
    traj = Trajectory([[1.0], [2.0]], dt=1.0, metadata={"cohort": "x"})
    with pytest.raises(ValueError):
        traj.states[0, 0] = 99.0
    with pytest.raises(TypeError):
        traj.metadata["cohort"] = "y"


def test_standardize_three_points():
    traj = Trajectory([[1.0], [2.0], [3.0]], dt=1.0)
    out = standardize(traj)
    np.testing.assert_allclose(out.states[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)


def test_standardize_idempotent():
    rng = np.random.default_rng(3)
    traj = Trajectory(rng.standard_normal((50, 2)), dt=0.5)
    once = standardize(traj)
    twice = standardize(once)
    np.testing.assert_allclose(twice.states, once.states, atol=1e-10)
    np.testing.assert_allclose(once.states.mean(axis=0), [0.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(once.states.std(axis=0, ddof=1), [1.0, 1.0], atol=1e-10)


def test_constant_dimension_rejected():
    traj = Trajectory([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], dt=1.0)
    with pytest.raises(DegenerateDimensionError):
        standardize(traj)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=2),
                min_size=3, max_size=40))
def test_standardize_round_trip(rows):
    arr = np.asarray(rows)
    if (arr.std(axis=0, ddof=1) <= 1e-6).any():
        return  # near-degenerate dimensions are rejected by contract
    std = standardize(Trajectory(arr, dt=1.0))
    assert np.abs(std.states.mean(axis=0)).max() < 1e-10
    np.testing.assert_allclose(std.states.std(axis=0, ddof=1), 1.0, atol=1e-10)

