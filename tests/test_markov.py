import tracemalloc

import numpy as np
import pytest

from conftest import ar1_trajectory, iid_trajectory, var1_trajectory

from markovorder import (
    TestConfig,
    batch_test,
    estimate_order,
    fit_backward,
    fit_forward,
    lag_statistic,
    lag_test,
    make_trajectory,
    sample_frequencies,
    standardize,
    sup_lag_statistic,
    trajectory_rng,
)
from markovorder import markov as markov_mod
from markovorder.errors import NonFiniteValueError, TrajectoryTooShortError

FAST = TestConfig(k_max=3, n_freqs=8, n_bootstrap=49, rng_seed=5)

# the canonical VAR(1) of acceptance criterion 8
VAR1_COEFFS = [[0.5, 0.1, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]]


class TestSampleFrequencies:
    def test_reproducible(self):
        a = sample_frequencies(3, 4, np.random.default_rng(7))
        b = sample_frequencies(3, 4, np.random.default_rng(7))
        for (m1, n1), (m2, n2) in zip(a, b):
            np.testing.assert_array_equal(m1, m2)
            np.testing.assert_array_equal(n1, n2)

    def test_shapes(self):
        pairs = sample_frequencies(3, 32, np.random.default_rng(0))
        assert len(pairs) == 32
        assert all(m.shape == (3,) and n.shape == (3,) for m, n in pairs)

    def test_different_seeds_differ(self):
        a = sample_frequencies(2, 1, np.random.default_rng(1))
        b = sample_frequencies(2, 1, np.random.default_rng(2))
        assert not np.array_equal(a[0][0], b[0][0])


class TestLagStatistic:
    def setup_method(self):
        self.traj, _ = standardize(iid_trajectory(80, 2, seed=3))
        self.fwd = fit_forward(self.traj)
        self.bwd = fit_backward(self.traj)

    def test_zero_mu_exact_zero(self):
        val = lag_statistic(self.traj, 2, np.zeros(2), np.array([0.5, 1.0]),
                            self.fwd, self.bwd)
        assert val == 0.0 + 0.0j

    def test_zero_nu_exact_zero(self):
        val = lag_statistic(self.traj, 2, np.array([0.5, 1.0]), np.zeros(2),
                            self.fwd, self.bwd)
        assert val == 0.0 + 0.0j

    def test_single_pair_vanishes(self):
        traj = make_trajectory([[0.1], [0.9]], dt=1.0)
        fwd = fit_forward(traj, bandwidth=1.0)
        bwd = fit_backward(traj, bandwidth=1.0)
        val = lag_statistic(traj, 1, np.array([0.7]), np.array([0.3]), fwd, bwd)
        assert abs(val) <= 1e-12

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            mu, nu = rng.standard_normal(2), rng.standard_normal(2)
            s = lag_statistic(self.traj, 1, mu, nu, self.fwd, self.bwd)
            s_neg = lag_statistic(self.traj, 1, -mu, -nu, self.fwd, self.bwd)
            assert s_neg == pytest.approx(np.conj(s), abs=1e-12)

    def test_iid_statistic_is_small(self):
        # population value is 0 under independence; Monte Carlo bound
        mu, nu = np.array([1.0]), np.array([1.0])
        for seed in range(20):
            traj, _ = standardize(iid_trajectory(2000, 1, seed=100 + seed))
            fwd, bwd = fit_forward(traj), fit_backward(traj)
            assert abs(lag_statistic(traj, 2, mu, nu, fwd, bwd)) <= 0.1

    def test_too_short(self):
        with pytest.raises(TrajectoryTooShortError):
            lag_statistic(self.traj, 80, np.ones(2), np.ones(2), self.fwd, self.bwd)


class TestSupStatistic:
    def setup_method(self):
        self.traj, _ = standardize(iid_trajectory(70, 2, seed=5))
        self.fwd = fit_forward(self.traj)
        self.bwd = fit_backward(self.traj)

    def test_all_zero_frequencies(self):
        pairs = [(np.zeros(2), np.zeros(2))] * 3
        assert sup_lag_statistic(self.traj, 1, pairs, self.fwd, self.bwd) == 0.0

    def test_single_pair_matches_statistic(self):
        mu, nu = np.array([0.3, 0.9]), np.array([-0.5, 0.2])
        sup = sup_lag_statistic(self.traj, 2, [(mu, nu)], self.fwd, self.bwd)
        s = lag_statistic(self.traj, 2, mu, nu, self.fwd, self.bwd)
        assert sup == pytest.approx(np.sqrt(68) * abs(s), abs=1e-12)

    def test_monotone_in_pairs(self):
        rng = np.random.default_rng(11)
        pairs = [(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(5)]
        sups = [sup_lag_statistic(self.traj, 1, pairs[:i], self.fwd, self.bwd)
                for i in range(1, 6)]
        assert all(b >= a for a, b in zip(sups, sups[1:]))

    def test_negating_all_pairs_leaves_sup_unchanged(self):
        rng = np.random.default_rng(12)
        pairs = [(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(4)]
        negated = [(-m, -n) for m, n in pairs]
        a = sup_lag_statistic(self.traj, 2, pairs, self.fwd, self.bwd)
        b = sup_lag_statistic(self.traj, 2, negated, self.fwd, self.bwd)
        assert a == pytest.approx(b, abs=1e-12)


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

    def test_far_outlier_pair_stays_finite(self):
        # the last two states coincide far from the rest: the forward fit's
        # only near neighbour of window T-2 is the window it cannot use
        x = np.random.default_rng(0).standard_normal((600, 3))
        x[-2:] = 25.0
        traj = make_trajectory(x, dt=1.0, id="outlier")
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


def one_shot_lag_test(traj, k, cfg, rng):
    """Reference lag test whose bootstrap is one (B, n_pad) multiplier draw
    and one product; returns (sup_stat, p_value)."""
    states = standardize(traj)[0].states
    mus = rng.standard_normal((cfg.n_freqs, traj.dim))
    nus = rng.standard_normal((cfg.n_freqs, traj.dim))
    fwd, bwd = markov_mod._residual_tables(states, k, mus, nus, cfg, rng)
    n_eff, M = traj.length - k, cfg.n_freqs
    shifts = [q for q in markov_mod._shift_range(k, cfg.n_shifts) if n_eff - q + 1 >= 4]
    n_pad = n_eff - shifts[0] + 1
    summands = np.zeros((n_pad, len(shifts) * M), dtype=complex)
    lengths = np.empty(len(shifts) * M)
    for i, q in enumerate(shifts):
        n_q = n_eff - q + 1
        summands[:n_q, i * M:(i + 1) * M] = (fwd[:, q - 1:q - 1 + n_q] * bwd[:, :n_q]).T
        lengths[i * M:(i + 1) * M] = n_q
    sup_obs = float(np.max(np.abs(summands.sum(axis=0)) / np.sqrt(lengths)))
    mult = rng.standard_normal((cfg.n_bootstrap, n_pad))
    boot = (mult @ summands.view(float)).view(complex)
    sup_boot = np.max(np.abs(boot) / np.sqrt(lengths), axis=1)
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
        # one (300, n_pad) multiplier draw with its product and |product|
        # peaked at 1615 KB; row blocks keep the working set small
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


class TestEstimateOrder:
    def test_cap_rule(self, monkeypatch):
        def always_reject(traj, k, cfg, rng):
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
        # public lag_test, which standardizes on its own, bit for bit
        traj = var1_trajectory(VAR1_COEFFS, 90, seed=14)
        est = estimate_order(traj, FAST)
        children = trajectory_rng(FAST.rng_seed, traj.id).spawn(FAST.k_max)
        for k in range(1, FAST.k_max + 1):
            assert est.per_lag[k - 1] == lag_test(traj, k, FAST, children[k - 1])

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
        bad = make_trajectory(np.ones((80, 1)) * 4.2, dt=1.0, id="flat")
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
    cfg = TestConfig(k_max=1, n_freqs=4, n_bootstrap=19, estimator="mdn",
                     mdn_components=2, mdn_hidden=8, mdn_epochs=30, rng_seed=3)
    res = lag_test(traj, 1, cfg, np.random.default_rng(6))
    assert 0.0 < res.p_value <= 1.0
