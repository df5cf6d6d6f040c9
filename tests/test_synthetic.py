import numpy as np
import pytest

from markovorder import ChainSpec, HiddenSpec, VarSpec, generate
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
        traj = generate(spec, 1000, np.random.default_rng(0))
        assert abs(traj.states.mean()) <= 0.1
        assert traj.metadata["true_order"] == "1"

    def test_ar1_autocorrelation(self):
        spec = VarSpec(coeffs=(np.array([[0.5]]),), noise_cov=np.eye(1))
        traj = generate(spec, 2000, np.random.default_rng(1))
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
        a = generate(spec, 100, np.random.default_rng(3))
        b = generate(spec, 100, np.random.default_rng(3))
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
        traj = generate(spec, 50, np.random.default_rng(5))
        vals = traj.states[:, 0]
        assert set(np.unique(vals)) == {0.0, 1.0}
        assert np.all(vals[1:] != vals[:-1])

    def test_uniform_iid_frequencies(self):
        spec = ChainSpec(order=1, transition=np.full((3, 3), 1.0 / 3.0),
                         embedding=np.arange(3.0))
        traj = generate(spec, 2000, np.random.default_rng(6))
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
        traj = generate(spec, 100, np.random.default_rng(7))
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


    # every embedding shape is checked here, so a spec's scalar, empty or 3-D
    # embedding is a data error when it is read, never an IndexError
    @pytest.mark.parametrize("embedding", [True, 1.0, [[[0.0]], [[1.0]]], [[0.0]], [[], []]])
    def test_embedding_not_one_row_per_state_rejected(self, embedding):
        with pytest.raises(DimensionMismatchError, match="one non-empty row per state"):
            ChainSpec(order=1, transition=np.full((2, 2), 0.5), embedding=np.array(embedding))

    def test_scalar_embedding_of_a_one_state_chain(self):
        spec = ChainSpec(order=1, transition=np.array([[1.0]]), embedding=np.array(3.0))
        assert generate(spec, 5, np.random.default_rng(12)).states.tolist() == [[3.0]] * 5


class TestHiddenState:
    def test_balanced_flips_reduce_to_iid(self):
        traj = generate(HiddenSpec(0.5, [[0.0], [0.0]]), 500, np.random.default_rng(8))
        assert abs(traj.states.mean()) <= 0.2
        assert traj.metadata["true_order"] == "none"

    def test_persistent_regimes_have_long_runs(self):
        traj = generate(HiddenSpec(0.99, [[-3.0], [3.0]]), 20000, np.random.default_rng(9))
        sign = np.sign(traj.states[:, 0])
        # mean run length of the dominant regime sign ~ 1/(1-persistence) = 100
        changes = np.nonzero(sign[1:] != sign[:-1])[0]
        runs = np.diff(np.concatenate([[0], changes + 1, [len(sign)]]))
        # geometric expectation 1/(1-persistence) = 100; emission noise
        # splits a few runs, pulling the observed mean slightly below it
        assert runs.mean() == pytest.approx(100, abs=30)

    def test_invalid_length(self):
        with pytest.raises(InsufficientDataError):
            generate(HiddenSpec(0.5, [[0.0], [1.0]]), 0, np.random.default_rng(10))

    def test_invalid_persistence(self):
        with pytest.raises(InsufficientDataError):
            HiddenSpec(1.0, [[0.0], [1.0]])

    # checked when the spec is built, not when a series is generated
    @pytest.mark.parametrize("persistence", [0.0, 1.5, -0.5, np.nan])
    def test_persistence_outside_the_open_unit_interval_rejected(self, persistence):
        with pytest.raises(InsufficientDataError, match="persistence must lie in"):
            HiddenSpec(persistence, [[0.0], [1.0]])

    def test_means_are_rows_or_columns(self):
        for means in ([-1.0, 1.0], [[-1.0], [1.0]]):
            assert HiddenSpec(0.5, means).means.tolist() == [[-1.0], [1.0]]
        rows = [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        assert HiddenSpec(0.5, rows).means.tolist() == rows
        assert HiddenSpec(0.5, np.array(rows).T).means.tolist() == rows

    @pytest.mark.parametrize("means", [[[0.0]], [0.0, 1.0, 2.0], [], [[], []],
                                       [[[0.0]], [[1.0]]]])
    def test_not_two_means_rejected(self, means):
        with pytest.raises(DimensionMismatchError, match="exactly two non-empty regime means"):
            HiddenSpec(0.5, means)

    @pytest.mark.parametrize("means", [[[0.0], [np.inf]], [np.nan, 1.0]])
    def test_non_finite_means_rejected(self, means):
        with pytest.raises(NonFiniteValueError, match="regime means must be finite"):
            HiddenSpec(0.5, means)


# one T=20 series per kind at a fixed seed: a draw that is moved, added or
# reordered changes them
PINNED_SPECS = {
    "var": VarSpec(coeffs=(np.array([[0.5]]), np.array([[-0.2]])), noise_cov=np.array([[0.8]]),
                   burn_in=10),
    "chain": ChainSpec(order=2, transition=np.array([[[0.9, 0.1], [0.2, 0.8]],
                                                     [[0.3, 0.7], [0.6, 0.4]]]),
                       embedding=np.array([-1.0, 2.5])),
    "hidden": HiddenSpec(0.8, [-1.0, 1.0]),
}
PINNED_SERIES = {
    "var": [-1.417928886263098, 0.7169458100634861, 0.6858072655669017, 0.9253601294424914,
            -0.905591402778715, -1.028169578770526, -1.4877539717684602, -1.2320311767968097,
            0.48925937787725987, -0.8332362712868957, -0.9921771606337096,
            -0.18294437350786535, -0.4909347717196334, -0.4345333321967783,
            -0.3175187065516444, 0.30214181952664887, -0.17115114322246283,
            0.09751341972166833, 0.13380757191653944, 0.4271473891699203],
    "chain": [2.5, -1.0, 2.5, 2.5, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0,
              -1.0, 2.5, 2.5, -1.0, 2.5, 2.5],
    "hidden": [-2.480581325020353, -1.534092829714582, -0.836211427799019, 0.3315296950844835,
               0.7477102403536433, 0.7781384591233871, 1.4181385697197018, 0.5687454516393918,
               1.2722606800068228, 1.0568191954835344, 1.424569256141968, 1.224943388070294,
               2.6576840551979304, 0.3363239305329897, 2.1991871656162356,
               -1.4026124264424147, -1.9579261729918134, 0.21119446936846997,
               -1.4395059040133564, -1.3876358717280692],
}
PINNED_METADATA = {"var": {"true_order": "2", "generator": "var"},
                   "chain": {"true_order": "2", "generator": "chain"},
                   "hidden": {"true_order": "none", "generator": "hidden_state"}}


@pytest.mark.parametrize("kind", sorted(PINNED_SPECS))
def test_pinned_series(kind):
    traj = generate(PINNED_SPECS[kind], 20, np.random.default_rng(2024), id=kind)
    assert traj.states.shape == (20, 1)
    assert dict(traj.metadata) == PINNED_METADATA[kind]
    if kind == "var":   # a matrix product: equal within rounding
        np.testing.assert_allclose(traj.states[:, 0], PINNED_SERIES[kind], rtol=1e-12, atol=0)
    else:
        assert traj.states[:, 0].tolist() == PINNED_SERIES[kind]
