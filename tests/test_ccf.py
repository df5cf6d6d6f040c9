import time
import tracemalloc

import numpy as np
import pytest

from conftest import exact_ccf_discrete, implied_ccf, var1_trajectory

from markovorder import TestConfig, ccf, estimate_order
from markovorder.ccf import KernelCcf, loo_window_residuals, window_embed
from markovorder.errors import (
    DimensionMismatchError,
    InsufficientDataError,
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
    # with two windows each leave-one-out fit is the other pair alone, so its
    # CCF is exactly that pair's target phase
    states = np.array([[0.2, -1.0], [1.5, 0.3], [-0.7, 0.8]])

    def test_forward_single_pair_is_target_phase(self):
        mus = np.array([[0.7, -0.4], [-1.1, 0.2]])
        fwd, _ = loo_window_residuals(self.states, 1, mus, mus)
        target = np.exp(1j * (mus @ self.states[1:].T))      # X_1, X_2
        np.testing.assert_allclose(target - fwd, target[:, ::-1], rtol=0.0, atol=1e-15)

    def test_backward_single_pair_is_source_phase(self):
        nus = np.array([[0.3, 0.9], [0.5, -1.6]])
        _, bwd = loo_window_residuals(self.states, 1, nus, nus)
        source = np.exp(1j * (nus @ self.states[:2].T))      # X_0, X_1
        np.testing.assert_allclose(source - bwd, source[:, ::-1], rtol=0.0, atol=1e-15)


class TestInvariants:
    # the CCFs that the lag test's leave-one-out residuals imply
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.states = rng.standard_normal((60, 3))
        self.freqs = np.random.default_rng(8).standard_normal((50, 3)) * 3

    def test_zero_frequency_exact_one(self):
        freqs = self.freqs.copy()
        freqs[5] = 0.0
        for table in implied_ccf(self.states, freqs, k=2):
            assert (table[5] == 1.0 + 0.0j).all()

    def test_modulus_bounded(self):
        for k in (1, 3):
            for table in implied_ccf(self.states, self.freqs, k):
                assert np.abs(table).max() <= 1.0 + 1e-12

    def test_conjugate_symmetry_exact(self):
        for plus, minus in zip(implied_ccf(self.states, self.freqs),
                               implied_ccf(self.states, -self.freqs)):
            np.testing.assert_array_equal(minus, plus.conj())

    def test_determinism(self):
        a = loo_window_residuals(self.states, 2, self.freqs, self.freqs)
        b = loo_window_residuals(self.states, 2, self.freqs, self.freqs)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_far_point_no_nan(self):
        states = self.states.copy()
        states[30] = 1e6   # a window far from all others: its weights must not be 0/0
        for table in loo_window_residuals(states, 1, self.freqs, self.freqs):
            assert np.isfinite(table).all()


class TestChainOracle:
    P = np.array([[0.70, 0.20, 0.10],
                  [0.15, 0.60, 0.25],
                  [0.05, 0.35, 0.60]])
    embed = np.array([-1.0, 0.0, 1.5])

    def sup_error(self, T, seed=21):
        states = simulate_chain(self.P, self.embed, T, seed)[:, None]
        freqs = np.linspace(-3, 3, 13)[:, None]
        fitted, _ = implied_ccf(states, freqs)
        cond = np.searchsorted(self.embed, states[:-1, 0])   # state of each window
        exact = np.array([[exact_ccf_discrete(self.P, self.embed, f, si) for si in range(3)]
                          for f in freqs])
        return np.abs(fitted - exact[:, cond]).max()

    def test_matches_exact_oracle(self):
        assert self.sup_error(5000) <= 0.05

    def test_consistency_with_sample_size(self):
        assert self.sup_error(5000) < self.sup_error(500)

    def test_backward_matches_forward_on_reversible_chain(self):
        P = np.array([[0.8, 0.2], [0.2, 0.8]])
        embed = np.array([-1.0, 1.0])
        states = simulate_chain(P, embed, 5000, seed=4)[:, None]
        fwd, bwd = implied_ccf(states, np.linspace(-3, 3, 9)[:, None])
        # forward column t+1 and backward column t both condition on X_{t+1}
        assert np.abs(fwd[:, 1:] - bwd[:, :-1]).max() <= 0.05


def test_window_embed_layout():
    states = np.arange(10, dtype=float).reshape(5, 2)
    emb = window_embed(states, 2)
    assert emb.shape == (4, 4)
    np.testing.assert_array_equal(emb[0], [0, 1, 2, 3])
    np.testing.assert_array_equal(emb[3], [6, 7, 8, 9])


def _assert_loo_matches_refit(k, outlier, far_pair=False):
    # brute-force reference: refit each pair's estimator without that pair
    rng = np.random.default_rng(31 + k)
    T, d, M = 40, 2, 4
    states = rng.standard_normal((T, d))
    if outlier:   # at k=1 window 1's only near neighbour is window 0, outside the
        # backward block, and window T-2's is window T-1, outside the forward one
        states[:2], states[-2:] = -25.0, 25.0
    if far_pair:  # windows 5 and 30 are each other's nearest, yet every weight of
        # either underflows; with 8-window tiles their pair lies off the diagonal
        states[5], states[30] = (60.0, 0.0), (60.0, 30.0)
    mus, nus = rng.standard_normal((M, d)), rng.standard_normal((M, d))
    fwd, bwd = loo_window_residuals(states, k, mus, nus)
    n = T - k
    h = np.full(k * d, 1.06 * n ** (-1.0 / (4.0 + k * d)))
    emb = window_embed(states, k)
    if outlier and k == 1:   # the two windows with a far neighbour lie 37 apart
        sq = ((emb[:, None] - emb[None]) ** 2).sum(axis=2)
        np.fill_diagonal(sq, np.inf)
        assert sq.argmin(axis=1)[[1, T - 2]].tolist() == [0, n]
    if far_pair:
        sq = ((emb[:, None] - emb[None]) ** 2).sum(axis=2) / h[0] ** 2
        np.fill_diagonal(sq, np.inf)
        assert sq.argmin(axis=1)[[5, 30]].tolist() == [30, 5]
        assert np.exp(-0.5 * sq[5].min()) == 0.0
    cases = ((emb[:-1], states[k:], mus, fwd), (emb[1:], states[:n], nus, bwd))
    for cond, targets, freqs, table in cases:
        ref = np.empty((M, n), dtype=complex)
        for i in range(n):
            keep = np.arange(n) != i
            fit = KernelCcf(cond=cond[keep], targets=targets[keep], bandwidth=h)
            ref[:, i] = (np.exp(1j * (freqs @ targets[i]))
                         - fit.evaluate_many(freqs, cond[i][None, :])[:, 0])
        assert table.shape == (M, n)
        np.testing.assert_allclose(table, ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("outlier", [False, True])
@pytest.mark.parametrize("k", [1, 3])
def test_loo_window_residuals_match_refit_without_pair(k, outlier):
    _assert_loo_matches_refit(k, outlier)


@pytest.mark.parametrize("outlier", [False, True])
@pytest.mark.parametrize("k", [1, 3])
def test_loo_window_residuals_in_row_blocks_match_refit(k, outlier, monkeypatch):
    monkeypatch.setattr(ccf, "_ROW_BLOCK", 8)   # 38-40 windows: five tiles a side
    _assert_loo_matches_refit(k, outlier)


@pytest.mark.parametrize("k", [1, 3])
def test_loo_window_residuals_far_pair_across_tiles_match_refit(k, monkeypatch):
    monkeypatch.setattr(ccf, "_ROW_BLOCK", 8)
    _assert_loo_matches_refit(k, outlier=False, far_pair=True)


@pytest.mark.parametrize("T", [300, 513, 1000])
def test_loo_window_residuals_row_blocks_agree_with_one_block(T, monkeypatch):
    rng = np.random.default_rng(T)
    states = rng.standard_normal((T, 3))
    mus, nus = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
    blocked = loo_window_residuals(states, 2, mus, nus)
    monkeypatch.setattr(ccf, "_ROW_BLOCK", T)
    for got, want in zip(blocked, loo_window_residuals(states, 2, mus, nus)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("block", [7, 64])
def test_loo_window_residuals_tiles_agree_with_one_tile(block, monkeypatch):
    rng = np.random.default_rng(block)
    states = rng.standard_normal((300, 3))   # 299 windows: uneven tile edges
    mus, nus = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
    monkeypatch.setattr(ccf, "_ROW_BLOCK", 300)
    whole = loo_window_residuals(states, 2, mus, nus)
    monkeypatch.setattr(ccf, "_ROW_BLOCK", block)
    for got, want in zip(loo_window_residuals(states, 2, mus, nus), whole):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_loo_window_residuals_peak_memory_at_T4000():
    rng = np.random.default_rng(4000)
    states = rng.standard_normal((4000, 3))
    mus, nus = rng.standard_normal((32, 3)), rng.standard_normal((32, 3))
    tracemalloc.start()
    try:
        loo_window_residuals(states, 1, mus, nus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6   # the full 4000 x 4000 kernel matrix alone is 128 MB


def test_loo_window_residuals_peak_memory_at_T2000():
    # the phase table and its cos and sin (3 MB here) are freed before the
    # tile loop, whose accumulator, basis and tile set the peak
    rng = np.random.default_rng(2000)
    states = rng.standard_normal((2000, 3))
    mus, nus = rng.standard_normal((32, 3)), rng.standard_normal((32, 3))
    tracemalloc.start()
    try:
        loo_window_residuals(states, 1, mus, nus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6


def test_loo_window_residuals_zero_and_negated_frequency(monkeypatch):
    monkeypatch.setattr(ccf, "_ROW_BLOCK", 64)   # 298 windows: five tiles a side
    rng = np.random.default_rng(43)
    states = rng.standard_normal((300, 3))
    mus, nus = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    mus[2], nus[4] = 0.0, 0.0
    fwd, bwd = loo_window_residuals(states, 2, mus, nus)
    assert not fwd[2].any() and not bwd[4].any()
    assert np.abs(fwd[[0, 1, 3, 4]]).min() > 0.0
    neg_fwd, neg_bwd = loo_window_residuals(states, 2, -mus, -nus)
    np.testing.assert_array_equal(neg_fwd, fwd.conj())
    np.testing.assert_array_equal(neg_bwd, bwd.conj())


def _float64_path(monkeypatch, fn, *args):
    """``fn(*args)`` with every tile in float64, whatever the series' length."""
    with monkeypatch.context() as m:
        m.setattr(ccf, "_SINGLE_ABOVE", 10**9)
        return fn(*args)


def _float32_tolerance(states, k):
    """Bound on the modulus of a float32-tile residual's error, from rounding.

    u = 2^-24 is float32's unit roundoff and g(m) = m u / (1 - m u) bounds
    the relative error of an m-term sum or dot product (Higham, ch. 3).
    - A logit is a (kd + 2)-term dot product of float32-rounded entries of
      ``left`` and ``right_t``: its absolute error is at most g(kd + 4) times
      its terms' moduli, which sum to (|u_i| + |u_j|)^2 / 2 <= 2 max |u|^2.
    - float32 ``exp`` is within 4 ulp (8u) relative, so each weight is off by
      a factor 1 + e, |e| <= exp(logit error) (1 + 8u) - 1.
    - A fitted CCF is a weighted mean of numbers of modulus <= 1, so weights
      off by 1 + e move it by at most 2 e / (1 - e).
    - sgemm sums at most _ROW_BLOCK products per tile, with float32-rounded
      basis values: g(_ROW_BLOCK + 1) of the weight sum, in the numerator
      and again in the denominator.
    - The clamped weights stay below 2^-24 of a kept window's weight sum: u.
    - Each bound holds for the real and the imaginary part: sqrt(2).
    The float64 path's own error (1e-12 in the oracle tests) is added.
    """
    u = 2.0 ** -24
    g = lambda m: m * u / (1 - m * u)
    n, kd = len(states) - k, k * states.shape[1]
    windows = window_embed(states, k) / (1.06 * n ** (-1.0 / (4.0 + kd)))
    logit_error = g(kd + 4) * 2 * (windows * windows).sum(axis=1).max()
    e = np.exp(logit_error) * (1 + 8 * u) - 1
    return np.sqrt(2) * (2 * e / (1 - e) + 2 * g(ccf._ROW_BLOCK + 1) + u) + 1e-12


@pytest.mark.parametrize("T", [1500, 2000])
def test_float32_tiles_agree_with_float64_within_rounding(T, monkeypatch):
    rng = np.random.default_rng(T)
    states = rng.standard_normal((T, 3))
    mus, nus = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
    single = loo_window_residuals(states, 2, mus, nus)
    double = _float64_path(monkeypatch, loo_window_residuals, states, 2, mus, nus)
    atol = _float32_tolerance(states, 2)
    for got, want in zip(single, double):
        assert not np.array_equal(got, want)   # the float32 path ran
        np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)


def test_float32_tiles_refit_a_far_window_in_float64(monkeypatch):
    rng = np.random.default_rng(1500)
    states = rng.standard_normal((1500, 3))
    states[700] = (25.0, 0.0, 0.0)   # windows 699 and 700 hold it (k = 2)
    mus, nus = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
    emb = window_embed(states, 2) / (1.06 * 1498 ** (-0.1))
    for far in (699, 700):
        dist = np.sqrt(((np.delete(emb, far, axis=0) - emb[far]) ** 2).sum(axis=1))
        assert 38.6 < dist.min() < 45   # every weight of it underflows float64, too
    single = loo_window_residuals(states, 2, mus, nus)
    double = _float64_path(monkeypatch, loo_window_residuals, states, 2, mus, nus)
    # forward column s conditions on window s, backward column t on window t + 1
    for got, want, cols in zip(single, double, ([699, 700], [698, 699])):
        np.testing.assert_allclose(got[:, cols], want[:, cols], rtol=0.0, atol=1e-12)
        assert np.abs(got[:, cols]).max() > 0.1


def _circle_states(T, k, across, seed=7):
    """Windows of a (T, 3) series on a circle ``across`` bandwidths across."""
    h = 1.06 * (T - k) ** (-0.1)
    phi = 0.1 * np.arange(T)
    radius = across * h / (2 * np.sqrt(2))
    rng = np.random.default_rng(seed)
    return np.column_stack([radius * np.cos(phi), radius * np.sin(phi),
                            0.05 * rng.standard_normal(T)])


def _best_of_five(states, k, mus, nus):
    """The least process time of five samples of five kernel calls each: with
    two BLAS threads the process time of one call read up to a scheduler
    tick (4 ms) off."""
    times = []
    for _ in range(5):
        t0 = time.process_time()
        for _ in range(5):
            loo_window_residuals(states, k, mus, nus)
        times.append(time.process_time() - t0)
    return min(times)


def test_float32_tiles_stay_fast_when_most_logits_are_clamped(monkeypatch):
    # windows on a circle 30 bandwidths across: 71% of the logits are below
    # -87 and every one above float64's denormal range (-708); unclamped
    # float32 weights there took 17x the float64 call, a clamp at -87 2.8x
    T, k = 1500, 2
    states = _circle_states(T, k, 30.0)
    rng = np.random.default_rng(7)
    mus, nus = rng.standard_normal((32, 3)), rng.standard_normal((32, 3))
    single, double = [], []
    for _ in range(2):   # interleaved, so a slow spell of the host hits both
        single.append(_best_of_five(states, k, mus, nus))
        double.append(_float64_path(monkeypatch, _best_of_five, states, k, mus, nus))
    assert min(single) < 2 * min(double), (single, double)


def test_float64_tiles_stay_fast_when_weights_would_be_denormal():
    # windows on a circle 40 bandwidths across: some logits lie between -745
    # and -708, where exp gives float64 denormals; passed to dgemm they took
    # 20x the call on standard normal states
    T, k = 1000, 2
    rng = np.random.default_rng(8)
    circle, normal = _circle_states(T, k, 40.0), rng.standard_normal((T, 3))
    mus, nus = rng.standard_normal((32, 3)), rng.standard_normal((32, 3))
    far, near = [], []
    for _ in range(2):   # interleaved, so a slow spell of the host hits both
        far.append(_best_of_five(circle, k, mus, nus))
        near.append(_best_of_five(normal, k, mus, nus))
    assert min(far) < 2 * min(near), (far, near)


@pytest.mark.parametrize("T", [300, 1000])   # one tile, then two a side
def test_float64_flush_keeps_the_residuals(T, monkeypatch):
    states = _circle_states(T, 2, 40.0)
    rng = np.random.default_rng(T)
    mus, nus = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
    windows = window_embed(states, 2) / (1.06 * (T - 2) ** (-0.1))
    sq = (windows * windows).sum(axis=1)
    assert -2 * sq.max() < ccf._LEAST_NORMAL   # the call flushes
    logits = windows @ windows.T - 0.5 * (sq[:, None] + sq[None, :])
    assert ((logits < -708.4) & (logits > -745)).mean() > 0.01   # denormal weights
    flushed = loo_window_residuals(states, 2, mus, nus)
    monkeypatch.setattr(ccf, "_LEAST_NORMAL", -np.inf)
    for got, want in zip(flushed, loo_window_residuals(states, 2, mus, nus)):
        np.testing.assert_array_equal(got, want)


def test_float32_tiles_keep_the_order_and_reject_flags(monkeypatch):
    traj = var1_trajectory([[0.5, 0.1, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]], 1500, seed=3)
    cfg = TestConfig(k_max=2, rng_seed=1)
    single = estimate_order(traj, cfg)
    double = _float64_path(monkeypatch, estimate_order, traj, cfg)
    assert single.order == double.order == 1
    assert [lag.reject for lag in single.per_lag] == [lag.reject for lag in double.per_lag]
    assert single.per_lag != double.per_lag   # the float32 path ran


def _cos_sin_of(phase):
    out = np.empty((2, *phase.shape))
    ccf._cos_sin(phase.copy(), out[0], out[1])
    return out


class TestCosSin:
    # the half-angle tangent stands in for libm's cos and sin in the bases
    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6])
    def test_close_to_libm(self, scale):
        phase = np.random.default_rng(13).standard_normal((32, 1999)) * scale
        cos, sin = _cos_sin_of(phase)
        np.testing.assert_allclose(cos, np.cos(phase), rtol=0.0, atol=4.5e-16)
        np.testing.assert_allclose(sin, np.sin(phase), rtol=0.0, atol=4.5e-16)
        assert np.abs(cos * cos + sin * sin - 1.0).max() <= 1e-15

    def test_zero_phase_is_exact(self):
        cos, sin = _cos_sin_of(np.array([0.0, -0.0]))
        np.testing.assert_array_equal(cos, [1.0, 1.0])
        np.testing.assert_array_equal(sin, [0.0, 0.0])

    def test_stacked_phase_equals_two_calls(self):
        # loo_window_residuals takes both fits' phases in one (2, M, n) call
        phase = np.random.default_rng(15).standard_normal((2, 32, 119)) * 3.0
        stacked = _cos_sin_of(phase)
        for i in range(2):
            np.testing.assert_array_equal(stacked[:, i], _cos_sin_of(phase[i]))

    def test_cos_even_sin_odd_exactly(self):
        phase = np.random.default_rng(14).standard_normal((32, 119)) * 5.0
        cos, sin = _cos_sin_of(phase)
        neg_cos, neg_sin = _cos_sin_of(-phase)
        np.testing.assert_array_equal(neg_cos, cos)
        np.testing.assert_array_equal(neg_sin, -sin)


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
    def test_dimension_mismatch_on_evaluate(self):
        fit = KernelCcf(cond=np.zeros((3, 2)), targets=np.zeros((3, 2)),
                        bandwidth=np.ones(2))
        with pytest.raises(DimensionMismatchError):
            fit.evaluate_many(np.ones((1, 1)), np.zeros((1, 2)))
        with pytest.raises(DimensionMismatchError):
            fit.evaluate_many(np.ones((1, 2)), np.zeros((1, 1)))

    @pytest.mark.parametrize("mus_shape, nus_shape", [((4, 3), (5, 3)), ((4, 2), (4, 2)),
                                                      ((4, 3), (4, 2)), ((3,), (3,))])
    def test_frequency_tables_mismatch_names_both_shapes(self, mus_shape, nus_shape):
        states = np.random.default_rng(16).standard_normal((40, 3))
        with pytest.raises(DimensionMismatchError) as info:
            loo_window_residuals(states, 1, np.ones(mus_shape), np.ones(nus_shape))
        assert str(mus_shape) in str(info.value) and str(nus_shape) in str(info.value)

    def test_window_too_large(self):
        with pytest.raises(InsufficientDataError):
            window_embed(np.zeros((3, 1)), 4)
