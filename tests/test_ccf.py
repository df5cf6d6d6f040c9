import numpy as np
import pytest

from markovorder import (
    exact_ccf_discrete,
    fit_backward,
    fit_forward,
    make_trajectory,
)
from markovorder.ccf import (
    KernelCcf,
    fit_backward_window,
    fit_forward_window,
    loo_window_residuals,
    window_embed,
)
from markovorder.errors import (
    DimensionMismatchError,
    InsufficientDataError,
    NonPositiveBandwidthError,
    NotStochasticError,
)


def simulate_chain(P, embed, T, seed):
    rng = np.random.default_rng(seed)
    S = P.shape[0]
    idx = np.empty(T, dtype=int)
    idx[0] = rng.integers(S)
    for t in range(1, T):
        idx[t] = rng.choice(S, p=P[idx[t - 1]])
    return np.asarray(embed, dtype=float)[idx]


class TestSinglePair:
    def test_forward_single_pair_is_target_phase(self):
        traj = make_trajectory([[0.2, -1.0], [1.5, 0.3]], dt=1.0)
        est = fit_forward(traj, bandwidth=1.0)
        mu = np.array([0.7, -0.4])
        for x in ([0.2, -1.0], [5.0, 5.0], [-3.0, 0.0]):
            val = est.evaluate(mu, np.asarray(x))
            assert val == complex(np.exp(1j * (mu @ traj.states[1])))

    def test_backward_single_pair_is_source_phase(self):
        traj = make_trajectory([[0.2, -1.0], [1.5, 0.3]], dt=1.0)
        est = fit_backward(traj, bandwidth=1.0)
        nu = np.array([0.3, 0.9])
        val = est.evaluate(nu, np.array([9.9, 9.9]))
        assert val == complex(np.exp(1j * (nu @ traj.states[0])))


class TestInvariants:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.traj = make_trajectory(rng.standard_normal((60, 3)), dt=1.0)
        self.est = fit_forward(self.traj)

    def test_zero_frequency_exact_one(self):
        val = self.est.evaluate(np.zeros(3), self.traj.states[5])
        assert val == 1.0 + 0.0j

    def test_modulus_bounded(self):
        rng = np.random.default_rng(8)
        freqs = rng.standard_normal((50, 3))
        points = rng.standard_normal((20, 3)) * 3
        vals = self.est.evaluate_many(freqs, points)
        assert np.abs(vals).max() <= 1.0 + 1e-12

    def test_conjugate_symmetry_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            mu = rng.standard_normal(3)
            x = rng.standard_normal(3)
            assert self.est.evaluate(-mu, x) == np.conj(self.est.evaluate(mu, x))

    def test_determinism(self):
        est2 = fit_forward(self.traj)
        mu = np.array([0.3, -0.2, 1.1])
        x = self.traj.states[10]
        assert self.est.evaluate(mu, x) == est2.evaluate(mu, x)

    def test_far_point_no_nan(self):
        val = self.est.evaluate(np.ones(3), np.full(3, 1e6))
        assert np.isfinite(val.real) and np.isfinite(val.imag)


class TestChainOracle:
    P = np.array([[0.70, 0.20, 0.10],
                  [0.15, 0.60, 0.25],
                  [0.05, 0.35, 0.60]])
    embed = np.array([-1.0, 0.0, 1.5])

    def sup_error(self, T, seed=21):
        states = simulate_chain(self.P, self.embed, T, seed)[:, None]
        est = fit_forward_window(states, window=1)
        freqs = np.linspace(-3, 3, 13)[:, None]
        points = self.embed[:, None]
        fitted = est.evaluate_many(freqs, points)
        worst = 0.0
        for fi, f in enumerate(freqs[:, 0]):
            for si in range(3):
                ora = exact_ccf_discrete(self.P, self.embed, np.array([f]), si)
                worst = max(worst, abs(fitted[fi, si] - ora))
        return worst

    def test_matches_exact_oracle(self):
        assert self.sup_error(5000) <= 0.05

    def test_consistency_with_sample_size(self):
        assert self.sup_error(5000) < self.sup_error(500)

    def test_backward_matches_forward_on_reversible_chain(self):
        P = np.array([[0.8, 0.2], [0.2, 0.8]])
        embed = np.array([-1.0, 1.0])
        states = simulate_chain(P, embed, 5000, seed=4)[:, None]
        fwd = fit_forward_window(states, window=1)
        bwd = fit_backward_window(states, window=1)
        freqs = np.linspace(-3, 3, 9)[:, None]
        pts = embed[:, None]
        assert np.abs(fwd.evaluate_many(freqs, pts)
                      - bwd.evaluate_many(freqs, pts)).max() <= 0.05


def test_tiny_bandwidth_reaches_dominant_pair():
    rng = np.random.default_rng(11)
    traj = make_trajectory(rng.standard_normal((30, 2)), dt=1.0)
    est = fit_forward(traj, bandwidth=1e-6)
    mu = np.array([0.9, -1.3])
    # at a fitted conditioning point the nearest-pair weight dominates
    val = est.evaluate(mu, traj.states[4])
    closed = complex(np.exp(1j * (mu @ traj.states[5])))
    assert val == pytest.approx(closed, abs=1e-9)


def test_window_embed_layout():
    states = np.arange(10, dtype=float).reshape(5, 2)
    emb = window_embed(states, 2)
    assert emb.shape == (4, 4)
    np.testing.assert_array_equal(emb[0], [0, 1, 2, 3])
    np.testing.assert_array_equal(emb[3], [6, 7, 8, 9])


def test_windowed_fits_reduce_to_plain_at_window_one():
    rng = np.random.default_rng(13)
    traj = make_trajectory(rng.standard_normal((40, 2)), dt=1.0)
    a = fit_forward(traj)
    b = fit_forward_window(traj.states, window=1)
    np.testing.assert_array_equal(a.cond, b.cond)
    np.testing.assert_array_equal(a.targets, b.targets)
    np.testing.assert_array_equal(a.bandwidth, b.bandwidth)


@pytest.mark.parametrize("outlier", [False, True])
@pytest.mark.parametrize("k", [1, 3])
def test_loo_window_residuals_match_refit_without_pair(k, outlier):
    # brute-force reference: refit each pair's estimator without that pair
    rng = np.random.default_rng(31 + k)
    T, d, M = 40, 2, 4
    states = rng.standard_normal((T, d))
    if outlier:   # at k=1 the forward block lacks window T-2's only near neighbour
        states[-2:] = 25.0
    mus, nus = rng.standard_normal((M, d)), rng.standard_normal((M, d))
    fwd, bwd = loo_window_residuals(states, k, mus, nus)
    n = T - k
    h = np.full(k * d, 1.06 * n ** (-1.0 / (4.0 + k * d)))
    emb = window_embed(states, k)
    cases = (("forward", emb[:-1], states[k:], mus, fwd),
             ("backward", emb[1:], states[:n], nus, bwd))
    for direction, cond, targets, freqs, table in cases:
        ref = np.empty((M, n), dtype=complex)
        for i in range(n):
            keep = np.arange(n) != i
            fit = KernelCcf(direction=direction, cond=cond[keep],
                            targets=targets[keep], bandwidth=h, window=k)
            ref[:, i] = (np.exp(1j * (freqs @ targets[i]))
                         - fit.evaluate_many(freqs, cond[i][None, :])[:, 0])
        assert table.shape == (M, n)
        np.testing.assert_allclose(table, ref, rtol=0.0, atol=1e-12)


class TestExactDiscrete:
    def test_identity_chain(self):
        P = np.eye(3)
        embed = np.array([0.0, 2.0, -1.0])
        freq = np.array([0.8])
        for i in range(3):
            val = exact_ccf_discrete(P, embed, freq, i)
            assert val == pytest.approx(complex(np.exp(1j * 0.8 * embed[i])), abs=1e-15)

    def test_unit_rotation(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        val = exact_ccf_discrete(P, np.array([0.0, 1.0]), np.array([np.pi]), 0)
        assert val == pytest.approx(-1.0 + 0.0j, abs=1e-12)

    def test_uniform_cancellation(self):
        P = np.full((2, 2), 0.5)
        val = exact_ccf_discrete(P, np.array([0.0, 1.0]), np.array([np.pi]), 0)
        assert abs(val) == pytest.approx(0.0, abs=1e-12)

    def test_not_stochastic(self):
        with pytest.raises(NotStochasticError):
            exact_ccf_discrete(np.array([[0.5, 0.6], [0.5, 0.5]]),
                               np.array([0.0, 1.0]), np.array([1.0]), 0)
        with pytest.raises(NotStochasticError):
            exact_ccf_discrete(np.array([[1.5, -0.5], [0.5, 0.5]]),
                               np.array([0.0, 1.0]), np.array([1.0]), 0)


class TestErrors:
    def test_bad_bandwidth(self):
        traj = make_trajectory([[0.0], [1.0], [2.0]], dt=1.0)
        with pytest.raises(NonPositiveBandwidthError):
            fit_forward(traj, bandwidth=0.0)
        with pytest.raises(NonPositiveBandwidthError):
            fit_forward(traj, bandwidth=[-1.0])

    def test_dimension_mismatch_on_evaluate(self):
        traj = make_trajectory([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]], dt=1.0)
        est = fit_forward(traj)
        with pytest.raises(DimensionMismatchError):
            est.evaluate(np.array([1.0]), traj.states[0])
        with pytest.raises(DimensionMismatchError):
            est.evaluate(np.array([1.0, 2.0]), np.array([1.0]))

    def test_window_too_large(self):
        with pytest.raises(InsufficientDataError):
            fit_forward_window(np.zeros((3, 1)), window=3)
