import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import ar1_trajectory, iid_trajectory, q_products, var1_trajectory

from markovorder import (
    ChainSpec,
    TestConfig,
    Trajectory,
    batch_test,
    estimate_order,
    generate,
    lag_test,
    standardize,
    trajectory_rng,
)
from markovorder import markov as markov_mod
from markovorder.ccf import loo_window_residuals
from markovorder.errors import NonFiniteValueError, TrajectoryTooShortError

FAST = TestConfig(k_max=3, n_freqs=8, n_bootstrap=49, rng_seed=5)

# the canonical VAR(1) of acceptance criterion 8
VAR1_COEFFS = [[0.5, 0.1, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]]


class TestSampleFrequencies:
    def test_reproducible(self):
        a = markov_mod._draw_frequencies(3, 4, np.random.default_rng(7))
        b = markov_mod._draw_frequencies(3, 4, np.random.default_rng(7))
        for m, n in zip(a, b):
            np.testing.assert_array_equal(m, n)

    def test_shapes(self):
        mus, nus = markov_mod._draw_frequencies(3, 32, np.random.default_rng(0))
        assert mus.shape == nus.shape == (32, 3)

    def test_different_seeds_differ(self):
        a = markov_mod._draw_frequencies(2, 1, np.random.default_rng(1))
        b = markov_mod._draw_frequencies(2, 1, np.random.default_rng(2))
        assert not np.array_equal(a[0], b[0])


def _statistic(states, k, mu, nu):
    """Mean of the lag-k test's residual products at separation q = k+1
    for one frequency pair."""
    fwd, bwd = loo_window_residuals(states, k, np.atleast_2d(mu), np.atleast_2d(nu))
    return complex(q_products(fwd, bwd, k).mean())


class TestLagStatistic:
    def setup_method(self):
        self.states = standardize(iid_trajectory(80, 2, seed=3)).states

    def test_zero_mu_exact_zero(self):
        val = _statistic(self.states, 2, np.zeros(2), np.array([0.5, 1.0]))
        assert val == 0.0 + 0.0j

    def test_zero_nu_exact_zero(self):
        val = _statistic(self.states, 2, np.array([0.5, 1.0]), np.zeros(2))
        assert val == 0.0 + 0.0j

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            mu, nu = rng.standard_normal(2), rng.standard_normal(2)
            s = _statistic(self.states, 1, mu, nu)
            s_neg = _statistic(self.states, 1, -mu, -nu)
            assert s_neg == pytest.approx(np.conj(s), abs=1e-12)

    def test_iid_statistic_is_small(self):
        # population value is 0 under independence; Monte Carlo bound
        mu, nu = np.array([1.0]), np.array([1.0])
        for seed in range(20):
            states = standardize(iid_trajectory(2000, 1, seed=100 + seed)).states
            assert abs(_statistic(states, 2, mu, nu)) <= 0.1


class TestLagTest:
    def test_p_value_range_and_flag(self):
        traj = iid_trajectory(100, 1, seed=6)
        res = lag_test(traj, 1, FAST, np.random.default_rng(3))
        assert 1 / (FAST.n_bootstrap + 1) <= res.p_value <= 1.0
        assert res.reject == (res.p_value <= FAST.alpha)
        assert res.n_effective == 99

    def test_bitwise_determinism(self):
        traj = iid_trajectory(100, 2, seed=7)
        a = lag_test(traj, 2, FAST, np.random.default_rng(9))
        b = lag_test(traj, 2, FAST, np.random.default_rng(9))
        assert a == b

    def test_alpha_only_flips_decision(self):
        traj = iid_trajectory(100, 1, seed=8)
        strict = TestConfig(k_max=3, n_freqs=8, n_bootstrap=49, alpha=0.01, rng_seed=5)
        a = lag_test(traj, 1, FAST, np.random.default_rng(4))
        b = lag_test(traj, 1, strict, np.random.default_rng(4))
        assert a.p_value == b.p_value
        assert a.sup_stat == b.sup_stat

    def test_too_short(self):
        traj = iid_trajectory(32, 1, seed=9)
        with pytest.raises(TrajectoryTooShortError):
            lag_test(traj, 5, FAST, np.random.default_rng(0))

    def test_no_usable_separation(self):
        # T - k = 6 passes min_effective_length = 2, but no separation
        # q = 5, 6, 7 keeps enough summands
        traj = iid_trajectory(10, 2, seed=9)
        cfg = replace(FAST, min_effective_length=2)
        with pytest.raises(TrajectoryTooShortError, match="leaves no usable residual separation"):
            lag_test(traj, 4, cfg, np.random.default_rng(0))

    def test_size_near_nominal_at_lag_two(self):
        # per-lag size on an iid null; reduced-replication companion to the
        # k=1 acceptance check
        cfg = TestConfig(alpha=0.05, rng_seed=1)
        reps, rejections = 80, 0
        for i in range(reps):
            traj = iid_trajectory(200, 2, seed=7000 + i)
            rejections += lag_test(traj, 2, cfg, np.random.default_rng(7500 + i)).reject
        assert 0.0 <= rejections / reps <= 0.15

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("process", ["ar1", "var1"])
    def test_size_on_dependent_null(self, process, k):
        # first-order Markov nulls with strong serial dependence; 400
        # replications, since blocks of 200 spread widely around the size
        cfg = TestConfig(alpha=0.05, rng_seed=7)
        reps, rejections = 400, 0
        for i in range(reps):
            if process == "ar1":
                traj = ar1_trajectory(0.9, 300, seed=20000 + i)
            else:
                traj = var1_trajectory(VAR1_COEFFS, 120, seed=20000 + i)
            rejections += lag_test(traj, k, cfg, np.random.default_rng(30000 + i)).reject
        assert 0.01 <= rejections / reps <= 0.12

    def test_mdn_size_on_var1_null(self):
        # the mixture estimator's in-sample residuals at its fixed default
        # hyperparameters; 100 replications, as each trains two networks
        cfg = TestConfig(alpha=0.05, rng_seed=7, estimator="mdn")
        reps, rejections = 100, 0
        for i in range(reps):
            traj = var1_trajectory(VAR1_COEFFS, 120, seed=20000 + i)
            rejections += lag_test(traj, 1, cfg, np.random.default_rng(30000 + i)).reject
        assert 0.01 <= rejections / reps <= 0.12

    def test_far_outlier_pair_stays_finite(self):
        # the last two states coincide far from the rest: the forward fit's
        # only near neighbour of window T-2 is the window it cannot use
        x = np.random.default_rng(0).standard_normal((600, 3))
        x[-2:] = 25.0
        traj = Trajectory(x, dt=1.0, id="outlier")
        res = lag_test(traj, 1, TestConfig(), np.random.default_rng(1))
        assert np.isfinite(res.sup_stat)
        assert not res.reject
        assert res.p_value > 0.5

    def test_non_finite_statistic_raises(self, monkeypatch):
        def nan_tables(states, k, mus, nus):
            n = states.shape[0] - k
            table = np.full((mus.shape[0], n), np.nan, dtype=complex)
            return table, table
        monkeypatch.setattr(markov_mod._ccf, "loo_window_residuals", nan_tables)
        traj = iid_trajectory(100, 1, seed=6)
        with pytest.raises(NonFiniteValueError):
            lag_test(traj, 1, FAST, np.random.default_rng(3))


@pytest.mark.parametrize("T", [120, 600])   # one kernel tile, then two a side
def test_lag_test_same_on_contiguous_residual_tables(T, monkeypatch):
    # the residual tables are views of one block; C-contiguous copies of them
    # must not change a bit downstream
    traj = var1_trajectory(VAR1_COEFFS, T, seed=T)
    cfg = TestConfig(k_max=2, rng_seed=1)
    views = [lag_test(traj, k, cfg, np.random.default_rng(k)) for k in (1, 2)]
    tables = markov_mod._ccf.loo_window_residuals
    states = standardize(traj).states
    mus = np.ones((4, 3))
    assert not any(t.flags.c_contiguous for t in tables(states, 1, mus, mus))
    monkeypatch.setattr(markov_mod._ccf, "loo_window_residuals",
                        lambda *args: tuple(np.ascontiguousarray(t) for t in tables(*args)))
    assert [lag_test(traj, k, cfg, np.random.default_rng(k)) for k in (1, 2)] == views


def summand_table(traj, k, cfg, rng):
    """The lag test's (n_pad, p/2) complex summand table and its per-column
    lengths, drawing the frequencies from ``rng`` as ``lag_test`` does."""
    states = standardize(traj).states
    mus = rng.standard_normal((cfg.n_freqs, traj.dim))
    nus = rng.standard_normal((cfg.n_freqs, traj.dim))
    fwd, bwd = markov_mod._ccf.loo_window_residuals(states, k, mus, nus)
    n_eff, M = traj.length - k, cfg.n_freqs
    shifts = [q for q in markov_mod._shift_range(k, cfg.n_shifts) if n_eff - q + 1 >= 4]
    n_pad = n_eff - shifts[0] + 1
    summands = np.zeros((n_pad, len(shifts) * M), dtype=complex)
    lengths = np.empty(len(shifts) * M)
    for i, q in enumerate(shifts):
        n_q = n_eff - q + 1
        summands[:n_q, i * M:(i + 1) * M] = (fwd[:, q - 1:q - 1 + n_q] * bwd[:, :n_q]).T
        lengths[i * M:(i + 1) * M] = n_q
    return summands, lengths


def boot_sups(factor, lengths, B, rng):
    """Sups of B replicates drawn in one (B, r) draw through ``factor``."""
    boot = (rng.standard_normal((B, factor.shape[0])) @ factor).view(complex)
    return np.max(np.abs(boot) / np.sqrt(lengths), axis=1)


def one_shot_lag_test(traj, k, cfg, rng):
    """Reference lag test whose bootstrap is one (B, r) multiplier draw and
    one product with the chosen factor: the (n_pad, p) real summand table,
    or on long series (n_pad > 2p) a p x p factor of its Gram matrix, the
    Cholesky factor or, where that fails, the eigendecomposition's; returns
    (sup_stat, p_value)."""
    summands, lengths = summand_table(traj, k, cfg, rng)
    sup_obs = float(np.max(np.abs(summands.sum(axis=0)) / np.sqrt(lengths)))
    factor = summands.view(float)
    if factor.shape[0] > 2 * factor.shape[1]:
        gram = factor.T @ factor
        try:
            factor = np.linalg.cholesky(gram).T
        except np.linalg.LinAlgError:
            w, V = np.linalg.eigh(gram)
            factor = (V * np.sqrt(np.clip(w, 0.0, None))).T
    sup_boot = boot_sups(factor, lengths, cfg.n_bootstrap, rng)
    return sup_obs, (1 + np.count_nonzero(sup_boot >= sup_obs)) / (cfg.n_bootstrap + 1)


class TestBlockedBootstrap:
    @pytest.mark.parametrize("B", [49, 64, 300, 301])
    @pytest.mark.parametrize("T, d, k", [(120, 3, 1), (120, 3, 4), (400, 2, 2)])
    def test_equals_one_shot_bootstrap(self, B, T, d, k):
        traj = iid_trajectory(T, d, seed=T + k)
        cfg = TestConfig(n_bootstrap=B)
        res = lag_test(traj, k, cfg, np.random.default_rng(B))
        sup, p = one_shot_lag_test(traj, k, cfg, np.random.default_rng(B))
        assert res.sup_stat == sup
        assert res.p_value == p

    def test_peak_allocation_bounded(self):
        # at T=120 the bootstrap draws (300, 118) float64 normals, rounds them
        # and the (118, 192) table to float32 and takes one float32 product
        # and its modulus (scaled in place): all of it under a megabyte
        traj = var1_trajectory(VAR1_COEFFS, 120, seed=3)
        lag_test(traj, 1, TestConfig(), np.random.default_rng(0))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lag_test(traj, 1, TestConfig(), np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def assert_factor_reproduces_gram(factor, real):
    gram = real.T @ real   # entries near zero are exact only to the largest's scale
    np.testing.assert_allclose(factor.T @ factor, gram, rtol=1e-12,
                               atol=1e-12 * np.abs(gram).max())


def chain_trajectory(T, seed):
    """A 3-state first-order chain on the line: its summand tables have
    rank 12 of p = 192, so no lag's Gram matrix is positive definite."""
    P = np.array([[0.70, 0.20, 0.10],
                  [0.15, 0.60, 0.25],
                  [0.05, 0.35, 0.60]])
    spec = ChainSpec(order=1, transition=P, embedding=np.array([-1.2, 0.0, 1.4]))
    return generate(spec, T, np.random.default_rng(seed), id=f"chain_{seed}")


def with_zero_mu(d, M, rng):
    """``_draw_frequencies`` with the first forward frequency set to zero."""
    mus, nus = rng.standard_normal((M, d)), rng.standard_normal((M, d))
    mus[0] = 0.0
    return mus, nus


class TestFactorBootstrap:
    def setup_method(self):
        traj = var1_trajectory(VAR1_COEFFS, 1000, seed=2)
        self.summands, self.lengths = summand_table(traj, 1, TestConfig(),
                                                    np.random.default_rng(0))

    def test_factor_reproduces_gram(self):
        real = self.summands.view(float)
        factor = markov_mod._bootstrap_factor(real)
        assert factor.shape == (192, 192)
        assert_factor_reproduces_gram(factor, real)

    def test_short_table_is_its_own_factor(self):
        real = self.summands[:384].view(float)
        assert markov_mod._bootstrap_factor(real) is real

    def test_factor_sups_follow_the_summand_law(self):
        # both draws are N(0, real.T @ real): their sups must share a law
        real = self.summands.view(float)
        factor = markov_mod._bootstrap_factor(real)
        direct = boot_sups(real, self.lengths, 2000, np.random.default_rng(1))
        through = boot_sups(factor, self.lengths, 2000, np.random.default_rng(2))
        assert ks_2samp(direct, through).pvalue > 0.01

    def test_zero_column_gets_the_eigh_factor(self):
        real = self.summands.view(float).copy()
        real[:, 5] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(real.T @ real)
        factor = markov_mod._bootstrap_factor(real)
        assert factor.shape == (192, 192)
        assert_factor_reproduces_gram(factor, real)
        assert np.isfinite(boot_sups(factor, self.lengths, 64, np.random.default_rng(3))).all()

    def test_chain_lags_get_a_p_by_p_factor(self):
        # T - 2k > 384 at every lag: each factor is p x p although no
        # Cholesky factorisation succeeds
        traj = chain_trajectory(600, seed=3)
        for k in range(1, 11):
            summands, _ = summand_table(traj, k, TestConfig(), np.random.default_rng(k))
            real = summands.view(float)
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(real.T @ real)
            factor = markov_mod._bootstrap_factor(real)
            assert factor.shape == (192, 192)
            assert_factor_reproduces_gram(factor, real)

    def test_chain_per_lag_equals_lag_test_with_the_matrix(self):
        traj = chain_trajectory(600, seed=4)
        cfg = TestConfig(rng_seed=1)
        est = estimate_order(traj, cfg)
        rng = trajectory_rng(cfg.rng_seed, traj.id)
        children = rng.spawn(cfg.k_max)
        multipliers = rng.standard_normal((192, cfg.n_bootstrap)).T
        for k in range(1, cfg.k_max + 1):
            assert est.per_lag[k - 1] == lag_test(traj, k, cfg, children[k - 1],
                                                  multipliers=multipliers)

    def test_zero_frequency_lag_test_stays_finite(self, monkeypatch):
        # a zero forward frequency makes its residuals, and so 2 * n_shifts
        # real columns of the table, exactly zero: Cholesky fails and the
        # lag test draws through the eigendecomposition's factor
        monkeypatch.setattr(markov_mod, "_draw_frequencies", with_zero_mu)
        traj = var1_trajectory(VAR1_COEFFS, 500, seed=4)
        res = lag_test(traj, 1, TestConfig(), np.random.default_rng(5))
        assert np.isfinite(res.sup_stat) and 0.0 < res.p_value <= 1.0

    def test_non_finite_table_still_raises(self, monkeypatch):
        def nan_tables(states, k, mus, nus):
            table = np.full((mus.shape[0], states.shape[0] - k), np.nan, dtype=complex)
            return table, table
        monkeypatch.setattr(markov_mod._ccf, "loo_window_residuals", nan_tables)
        with pytest.raises(NonFiniteValueError):
            lag_test(iid_trajectory(600, 1, seed=6), 1, TestConfig(), np.random.default_rng(3))


class TestSinglePrecisionBootstrap:
    # the three factors: the table itself (T=120), the Cholesky factor of a
    # VAR's Gram matrix and the eigh factor of a chain's (both T=600)
    @pytest.mark.parametrize("kind", ["table", "cholesky", "eigh"])
    def test_sups_match_a_double_product(self, kind):
        traj = {"table": lambda: var1_trajectory(VAR1_COEFFS, 120, seed=5),
                "cholesky": lambda: var1_trajectory(VAR1_COEFFS, 600, seed=5),
                "eigh": lambda: chain_trajectory(600, seed=5)}[kind]()
        summands, lengths = summand_table(traj, 1, TestConfig(), np.random.default_rng(1))
        real = summands.view(float)
        factor = markov_mod._bootstrap_factor(real)
        if kind == "table":
            assert factor is real
        elif kind == "cholesky":
            np.testing.assert_array_equal(factor, np.linalg.cholesky(real.T @ real).T)
        else:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(real.T @ real)
            assert factor.shape == (192, 192)
        M = np.random.default_rng(2).standard_normal((factor.shape[0], 300)).T
        single = markov_mod._bootstrap_sups(M, factor, np.sqrt(lengths))
        double = np.max(np.abs((M @ factor).view(complex)) / np.sqrt(lengths), axis=1)
        assert single.dtype == np.float32
        np.testing.assert_allclose(single, double, rtol=1e-5)
        # the max over the transposed copy keeps the bits of the plain row max
        prod = M.astype(np.float32) @ factor.astype(np.float32)
        scale32 = np.sqrt(lengths).astype(np.float32)
        assert (single == (np.abs(prod.view(np.complex64)) / scale32).max(axis=1)).all()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("width", [1, 4])
    def test_block_max_before_division_keeps_every_bit(self, width):
        # integer multipliers and factor entries make ties; a multiplier of
        # 1e38 overflows its diagonal product (4e38) to inf, and an infinite
        # one is inf in every column but the complex pair its factor row
        # zeroes, where inf * 0 is NaN
        rng = np.random.default_rng(width)
        blocks, B = 6, 60
        p = 2 * blocks * width
        g = rng.integers(-3, 4, (B, p)).astype(float)
        g[rng.integers(0, B, 8), rng.integers(1, p, 8)] = 1e38
        g[rng.integers(0, B, 3), 0] = np.inf
        factor = np.ones((p, p)) + 3.0 * np.eye(p)
        pair = 2 * rng.integers(0, p // 2)
        factor[0, pair:pair + 2] = 0.0   # hypot(NaN, inf) would be inf
        scale = np.sqrt(rng.integers(2, 200, blocks).astype(float))
        modulus = np.abs((g.astype(np.float32) @ factor.astype(np.float32)).view(np.complex64))
        want = (modulus / np.repeat(scale, width).astype(np.float32)).max(axis=1)
        assert np.isnan(want).any() and np.isinf(want).any() and np.isfinite(want).any()
        assert any(len(np.unique(row)) < row.size for row in modulus)
        for per in (scale, np.repeat(scale, width)):   # blocks of width, and of one
            # assert_array_equal compares with ==, taking NaN to equal NaN
            np.testing.assert_array_equal(markov_mod._bootstrap_sups(g, factor, per), want)

    @pytest.mark.parametrize("T", [120, 600])
    def test_double_multipliers_equal_their_single_rounding(self, monkeypatch, T):
        sups = []
        bootstrap_sups = markov_mod._bootstrap_sups
        monkeypatch.setattr(markov_mod, "_bootstrap_sups",
                            lambda *args: sups.append(bootstrap_sups(*args)) or sups[-1])
        traj = var1_trajectory(VAR1_COEFFS, T, seed=T)
        cfg = TestConfig(k_max=1)
        M64 = np.random.default_rng(3).standard_normal((min(T - 2, 192), 300)).T
        double = lag_test(traj, 1, cfg, np.random.default_rng(4), multipliers=M64)
        single = lag_test(traj, 1, cfg, np.random.default_rng(4),
                          multipliers=M64.astype(np.float32))
        assert double == single
        np.testing.assert_array_equal(sups[0], sups[1])


class TestSharedMultipliers:
    def test_wrong_row_count_raises(self):
        traj = iid_trajectory(100, 1, seed=6)
        with pytest.raises(ValueError, match="rows"):
            lag_test(traj, 1, FAST, np.random.default_rng(3),
                     multipliers=np.zeros((FAST.n_bootstrap - 1, 98)))

    def test_narrow_matrix_raises(self):
        traj = iid_trajectory(90, 1, seed=6)
        narrow = np.zeros((FAST.n_bootstrap, 87))   # the table has n_pad = 88 rows
        with pytest.raises(ValueError, match="columns"):
            lag_test(traj, 1, FAST, np.random.default_rng(3), multipliers=narrow)

    @pytest.mark.parametrize("shape", [(49,), (49, 98, 1)])
    def test_matrix_not_2d_raises_naming_its_shape(self, shape):
        traj = iid_trajectory(100, 1, seed=6)
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            lag_test(traj, 1, FAST, np.random.default_rng(3), multipliers=np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_multipliers_raise(self, bad):
        # a NaN replicate sup compares false with sup_obs and would give the
        # smallest p-value
        traj = var1_trajectory(VAR1_COEFFS, 120, seed=7)
        multipliers = np.random.default_rng(8).standard_normal((300, 118))
        multipliers[5, 3] = bad
        with pytest.raises(NonFiniteValueError, match="replicate"):
            lag_test(traj, 1, TestConfig(), np.random.default_rng(9), multipliers=multipliers)

    def test_eigh_factor_takes_the_shared_matrix(self, monkeypatch):
        # a zero frequency makes Cholesky fail at T=500; the lag's p x p
        # factor reads the trajectory's p columns like any other
        monkeypatch.setattr(markov_mod, "_draw_frequencies", with_zero_mu)
        traj = var1_trajectory(VAR1_COEFFS, 500, seed=4)
        cfg = TestConfig(k_max=1, rng_seed=2)
        est = estimate_order(traj, cfg)
        rng = trajectory_rng(cfg.rng_seed, traj.id)
        child = rng.spawn(1)[0]
        multipliers = rng.standard_normal((192, cfg.n_bootstrap)).T
        assert est.per_lag[0] == lag_test(traj, 1, cfg, child, multipliers=multipliers)
        # all-zero multipliers give all-zero replicates: the smallest p-value
        zeros = np.zeros((cfg.n_bootstrap, 192))
        assert lag_test(traj, 1, cfg, np.random.default_rng(0), multipliers=zeros).p_value \
            == 1 / (cfg.n_bootstrap + 1)


class TestEstimateOrder:
    def test_cap_rule(self, monkeypatch):
        def always_reject(traj, k, cfg, rng, multipliers=None):
            return markov_mod.MarkovTestResult(k=k, sup_stat=9.9, p_value=0.001,
                                               reject=True, n_effective=traj.length - k)
        monkeypatch.setattr(markov_mod, "lag_test", always_reject)
        traj = iid_trajectory(100, 1, seed=10)
        est = estimate_order(traj, FAST)
        assert est.capped
        assert est.order == FAST.k_max
        assert len(est.per_lag) == FAST.k_max

    def test_per_lag_equals_lag_test(self):
        # estimate_order standardizes once; each lag must still match the
        # public lag_test, which standardizes on its own, bit for bit, given
        # the trajectory's multiplier matrix (T - 2 = 88 <= 2p = 96: every
        # lag multiplies its table, the widest at lag 1)
        traj = var1_trajectory(VAR1_COEFFS, 90, seed=14)
        est = estimate_order(traj, FAST)
        rng = trajectory_rng(FAST.rng_seed, traj.id)
        children = rng.spawn(FAST.k_max)
        multipliers = rng.standard_normal((traj.length - 2, FAST.n_bootstrap)).T
        for k in range(1, FAST.k_max + 1):
            assert est.per_lag[k - 1] == lag_test(traj, k, FAST, children[k - 1],
                                                  multipliers=multipliers)

    # T=120: every lag multiplies its table; T=600: every lag draws through
    # its Cholesky factor; T=390: lags 1-2 (n_pad 388, 386 > 2p = 384) take
    # the factor and lag 3 the table, so the matrix widens from k_max 3 on
    @pytest.mark.parametrize("T", [120, 390, 600])
    def test_per_lag_independent_of_kmax_and_alpha(self, T):
        traj = var1_trajectory(VAR1_COEFFS, T, seed=T + 1)
        full = estimate_order(traj, TestConfig(k_max=8, rng_seed=3)).per_lag
        for k_max in (1, 3):
            assert estimate_order(traj, TestConfig(k_max=k_max, rng_seed=3)).per_lag \
                == full[:k_max]
        strict, loose = (estimate_order(traj, TestConfig(k_max=3, alpha=a, rng_seed=3))
                         for a in (0.01, 0.10))
        assert [r.p_value for r in strict.per_lag] == [r.p_value for r in loose.per_lag]
        assert [r.sup_stat for r in strict.per_lag] == [r.sup_stat for r in loose.per_lag]

    def test_size_on_var1_null(self):
        # the bootstrap that test runs: every lag of a trajectory shares its
        # multiplier matrix, and each lag's size must stay in band
        cfg = TestConfig(k_max=2, alpha=0.05, rng_seed=7)
        reps, rejections = 400, np.zeros(2)
        for i in range(reps):
            est = estimate_order(var1_trajectory(VAR1_COEFFS, 120, seed=40000 + i), cfg)
            rejections += [r.reject for r in est.per_lag]
        rates = rejections / reps
        assert ((0.01 <= rates) & (rates <= 0.12)).all(), rates

    def test_first_acceptance_invariant(self):
        traj = ar1_trajectory(0.6, 400, seed=11)
        est = estimate_order(traj, TestConfig(k_max=3, n_freqs=16,
                                              n_bootstrap=99, rng_seed=2))
        if not est.capped:
            k = est.order
            assert est.per_lag[k - 1].p_value > est.alpha
            assert all(r.p_value <= est.alpha for r in est.per_lag[:k - 1])

    def test_kmax_reduced_for_short_trajectory(self):
        traj = iid_trajectory(35, 1, seed=12)
        est = estimate_order(traj, TestConfig(k_max=10, n_freqs=4,
                                              n_bootstrap=19, rng_seed=1))
        assert est.k_max == 5
        assert len(est.per_lag) == 5

    def test_large_kmax_ends_at_first_usable_separation(self):
        # T=60: lag 29 would leave T - 2k = 2 summands at its first
        # separation, so the range ends at lag 28 instead of failing, and the
        # lags it shares with a k_max=26 run keep their results
        traj = var1_trajectory([[0.5, 0.1], [0.0, 0.4]], 60, seed=60)
        cfg = TestConfig(k_max=30, n_freqs=4, n_bootstrap=19)
        est = estimate_order(traj, cfg)
        assert (est.k_max, len(est.per_lag), est.order) == (28, 28, 1)
        assert est.per_lag[:26] == estimate_order(traj, replace(cfg, k_max=26)).per_lag

    def test_too_short_even_for_lag_one(self):
        traj = iid_trajectory(30, 1, seed=13)
        with pytest.raises(TrajectoryTooShortError):
            estimate_order(traj, FAST)

    def test_deterministic_given_config_seed(self):
        traj = iid_trajectory(90, 1, seed=14)
        a = estimate_order(traj, FAST)
        b = estimate_order(traj, FAST)
        assert a == b


class TestBatch:
    def test_empty(self):
        assert batch_test([], FAST) == []

    def test_identical_trajectories_identical_results(self):
        traj = iid_trajectory(80, 1, seed=15)
        items = batch_test([traj, traj], FAST)
        assert items[0].estimate == items[1].estimate

    def test_shuffle_invariance(self):
        trajs = [iid_trajectory(80, 1, seed=s) for s in range(16, 20)]
        fwd = batch_test(trajs, FAST)
        rev = batch_test(list(reversed(trajs)), FAST)
        by_id_fwd = {it.trajectory_id: it for it in fwd}
        by_id_rev = {it.trajectory_id: it for it in rev}
        assert by_id_fwd == by_id_rev

    def test_failures_recorded_not_raised(self):
        good = iid_trajectory(80, 1, seed=21)
        bad = Trajectory(np.ones((80, 1)) * 4.2, dt=1.0, id="flat")
        items = batch_test([good, bad], FAST)
        assert items[0].error is None
        assert items[1].error is not None
        assert "Degenerate" in items[1].error

    def test_program_bug_propagates(self, monkeypatch):
        def broken(traj, cfg, rng=None):
            raise IndexError("slicing slip")
        monkeypatch.setattr(markov_mod, "estimate_order", broken)
        with pytest.raises(IndexError):
            batch_test([iid_trajectory(80, 1, seed=21)], FAST, jobs=1)

    def test_pool_has_no_more_workers_than_trajectories(self, monkeypatch):
        import concurrent.futures
        pool, sizes = concurrent.futures.ProcessPoolExecutor, []

        def counted(max_workers=None, **kwargs):
            sizes.append(max_workers)
            return pool(max_workers=max_workers, **kwargs)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
        trajs = [iid_trajectory(80, 1, seed=s) for s in (26, 27)]
        assert batch_test(trajs, FAST, jobs=6) == batch_test(trajs, FAST, jobs=1)
        assert sizes == [2]

    def test_parallel_matches_serial(self):
        trajs = [iid_trajectory(80, 1, seed=s) for s in range(22, 26)]
        serial = batch_test(trajs, FAST, jobs=1)
        parallel = batch_test(trajs, FAST, jobs=2)
        assert serial == parallel


def test_trajectory_rng_stable():
    a = trajectory_rng(42, "traj_a").standard_normal(4)
    b = trajectory_rng(42, "traj_a").standard_normal(4)
    c = trajectory_rng(42, "traj_b").standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_config_validation():
    with pytest.raises(ValueError):
        TestConfig(k_max=0)
    with pytest.raises(ValueError):
        TestConfig(alpha=1.0)
    with pytest.raises(ValueError):
        TestConfig(estimator="nope")


def test_mdn_estimator_path_runs():
    traj = iid_trajectory(70, 1, seed=30)
    cfg = TestConfig(k_max=1, n_freqs=4, n_bootstrap=19, estimator="mdn", rng_seed=3)
    res = lag_test(traj, 1, cfg, np.random.default_rng(6))
    assert 0.0 < res.p_value <= 1.0
