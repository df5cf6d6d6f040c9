import numpy as np
import pytest

from markovorder import ChainSpec, VarSpec, gen_chain, gen_hidden_state, gen_var
from markovorder.errors import (
    DimensionMismatchError,
    InsufficientDataError,
    NonFiniteValueError,
    NonStationarySpecError,
    NotStochasticError,
)
from markovorder.synthetic import companion_spectral_radius


def power_iteration_radius(coeffs, iters=800, seed=0):
    """Independent spectral-radius oracle: long-run growth rate of the
    companion matrix iteration (robust to complex eigenvalue pairs)."""
    coeffs = [np.atleast_2d(np.asarray(a, dtype=float)) for a in coeffs]
    d, p = coeffs[0].shape[0], len(coeffs)
    top = np.concatenate(coeffs, axis=1)
    if p == 1:
        comp = top
    else:
        eye = np.eye(d * (p - 1))
        comp = np.concatenate([top, np.concatenate([eye, np.zeros((d * (p - 1), d))], axis=1)])
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(comp.shape[0]) + 1j * rng.standard_normal(comp.shape[0])
    log_growth = []
    for _ in range(iters):
        w = comp @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        log_growth.append(np.log(norm / np.linalg.norm(v)))
        v = w / norm
    return float(np.exp(np.mean(log_growth[iters // 2:])))


class TestVar:
    def test_zero_coefficient_is_iid(self):
        spec = VarSpec(coeffs=(np.zeros((1, 1)),), noise_cov=np.eye(1))
        traj = gen_var(spec, 1000, np.random.default_rng(0))
        assert abs(traj.states.mean()) <= 0.1
        assert traj.metadata["true_order"] == "1"

    def test_ar1_autocorrelation(self):
        spec = VarSpec(coeffs=(np.array([[0.5]]),), noise_cov=np.eye(1))
        traj = gen_var(spec, 2000, np.random.default_rng(1))
        x = traj.states[:, 0]
        xc = x - x.mean()
        acf1 = (xc[1:] * xc[:-1]).sum() / (xc * xc).sum()
        assert acf1 == pytest.approx(0.5, abs=0.07)

    def test_nonstationary_rejected(self):
        with pytest.raises(NonStationarySpecError):
            VarSpec(coeffs=(np.array([[1.001]]),), noise_cov=np.eye(1))

    def test_spectral_radius_matches_power_iteration(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            coeffs = (0.3 * rng.standard_normal((2, 2)), 0.2 * rng.standard_normal((2, 2)))
            assert companion_spectral_radius(coeffs) == pytest.approx(
                power_iteration_radius(coeffs), rel=1e-3)

    def test_seeded_determinism(self):
        spec = VarSpec(coeffs=(np.array([[0.4]]),), noise_cov=np.eye(1))
        a = gen_var(spec, 100, np.random.default_rng(3))
        b = gen_var(spec, 100, np.random.default_rng(3))
        np.testing.assert_array_equal(a.states, b.states)

    def test_noise_cov_must_be_spd(self):
        with pytest.raises(NonStationarySpecError):
            VarSpec(coeffs=(np.zeros((2, 2)),), noise_cov=np.zeros((2, 2)))

    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionMismatchError, match="dimension must be >= 1"):
            VarSpec(coeffs=(np.zeros((0, 0)),), noise_cov=np.eye(0))

    # an infinite covariance passed the symmetry and definiteness checks, and
    # a NaN coefficient raised numpy's LinAlgError from the spectral radius
    @pytest.mark.parametrize("coeffs, noise_cov", [
        ([[0.4]], [[np.inf]]), ([[np.nan]], [[1.0]]), ([[0.4]], [[np.nan]]),
        ([[-np.inf]], [[1.0]]),
    ])
    def test_non_finite_parameter_rejected(self, coeffs, noise_cov):
        with pytest.raises(NonFiniteValueError, match="must be finite"):
            VarSpec(coeffs=(np.array(coeffs),), noise_cov=np.array(noise_cov))


class TestChain:
    def test_deterministic_two_cycle(self):
        spec = ChainSpec(order=1, transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
                         embedding=np.array([0.0, 1.0]))
        traj = gen_chain(spec, 50, np.random.default_rng(5))
        vals = traj.states[:, 0]
        assert set(np.unique(vals)) == {0.0, 1.0}
        assert np.all(vals[1:] != vals[:-1])

    def test_uniform_iid_frequencies(self):
        spec = ChainSpec(order=1, transition=np.full((3, 3), 1.0 / 3.0),
                         embedding=np.arange(3.0))
        traj = gen_chain(spec, 2000, np.random.default_rng(6))
        for v in range(3):
            freq = (traj.states[:, 0] == v).mean()
            assert freq == pytest.approx(1.0 / 3.0, abs=0.05)

    def test_order_two_parity_metadata(self):
        # next state = xor of the last two with probability 0.9
        trans = np.empty((2, 2, 2))
        for a in range(2):
            for b in range(2):
                x = a ^ b
                trans[a, b, x] = 0.9
                trans[a, b, 1 - x] = 0.1
        spec = ChainSpec(order=2, transition=trans, embedding=np.array([-1.0, 1.0]))
        traj = gen_chain(spec, 100, np.random.default_rng(7))
        assert traj.metadata["true_order"] == "2"

    def test_not_stochastic(self):
        with pytest.raises(NotStochasticError):
            ChainSpec(order=1, transition=np.array([[0.5, 0.6], [0.5, 0.5]]),
                      embedding=np.array([0.0, 1.0]))

    def test_nan_transition_is_not_stochastic(self):
        with pytest.raises(NotStochasticError):
            ChainSpec(order=1, transition=np.array([[np.nan, 0.5], [0.5, 0.5]]),
                      embedding=np.array([0.0, 1.0]))

    @pytest.mark.parametrize("embedding", [[0.0, np.inf], [[0.0], [np.nan]]])
    def test_non_finite_embedding_rejected(self, embedding):
        with pytest.raises(NonFiniteValueError, match="embedding must be finite"):
            ChainSpec(order=1, transition=np.full((2, 2), 0.5), embedding=np.array(embedding))


class TestHiddenState:
    def test_balanced_flips_reduce_to_iid(self):
        traj = gen_hidden_state(0.5, [[0.0], [0.0]], 500, np.random.default_rng(8))
        assert abs(traj.states.mean()) <= 0.2
        assert traj.metadata["true_order"] == "none"

    def test_persistent_regimes_have_long_runs(self):
        traj = gen_hidden_state(0.99, [[-3.0], [3.0]], 20000, np.random.default_rng(9))
        sign = np.sign(traj.states[:, 0])
        # mean run length of the dominant regime sign ~ 1/(1-persistence) = 100
        changes = np.nonzero(sign[1:] != sign[:-1])[0]
        runs = np.diff(np.concatenate([[0], changes + 1, [len(sign)]]))
        # geometric expectation 1/(1-persistence) = 100; emission noise
        # splits a few runs, pulling the observed mean slightly below it
        assert runs.mean() == pytest.approx(100, abs=30)

    def test_invalid_length(self):
        with pytest.raises(InsufficientDataError):
            gen_hidden_state(0.5, [[0.0], [1.0]], 0, np.random.default_rng(10))

    def test_invalid_persistence(self):
        with pytest.raises(InsufficientDataError):
            gen_hidden_state(1.0, [[0.0], [1.0]], 10, np.random.default_rng(11))
