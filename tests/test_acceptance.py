"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Monte Carlo criteria use fixed seeds; the heavier ones (size calibration,
order recovery, parallel invariance) take a couple of minutes combined.
"""

import json

import numpy as np

from conftest import (
    exact_ccf_discrete,
    f_cdf_quadrature,
    iid_trajectory,
    implied_ccf,
    q_products,
    skip_order2_trajectory,
    t_cdf_quadrature,
)

from markovorder import (
    TestConfig,
    estimate_order,
    f_cdf,
    f_test_from_stats,
    lag_test,
    pooled_t_test_from_stats,
    standardize,
    summarize_orders,
    t_cdf,
)
from markovorder.ccf import loo_window_residuals
from markovorder.cli import main
from markovorder.ingest import IngestConfig, ingest_file, latlon_to_local


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_t_test_table_consistency():
    res_a = pooled_t_test_from_stats(2.11, 2.38, 134, 1.81, 1.29, 21)
    res_b = pooled_t_test_from_stats(3.18, 3.67, 61, 1.74, 1.03, 54)
    ok = abs(res_a.t - 0.5699) <= 0.03 and abs(res_b.t - 2.7841) <= 0.03
    _report("1 t-test summary consistency", ok,
            f"t={res_a.t:.4f} vs 0.5699, t={res_b.t:.4f} vs 2.7841")


def test_criterion_02_f_test_table_consistency():
    res_a = f_test_from_stats(2.38, 134, 1.29, 21)
    res_b = f_test_from_stats(3.67, 61, 1.03, 54)
    cdf = f_cdf(3.40, 133, 20)
    ok = (abs(res_a.f - 3.4065) <= 0.03
          and abs(res_b.f - 12.6774) <= 0.06
          and abs(cdf - 0.9987) <= 0.002)
    _report("2 F-test summary consistency", ok,
            f"F={res_a.f:.4f} vs 3.4065, F={res_b.f:.4f} vs 12.6774, "
            f"CDF={cdf:.4f} vs 0.9987")


def test_criterion_03_special_function_accuracy():
    t_dfs = [1, 2, 5, 10, 30, 60, 113, 153, 200, 400]
    t_xs = [-4.0, -1.3, 0.4, 1.8125, 3.5]
    t_err = max(abs(t_cdf(x, df) - t_cdf_quadrature(x, df))
                for df in t_dfs for x in t_xs)
    f_dfs = [(133, 20), (60, 53), (2, 9), (5, 7), (30, 30),
             (10, 3), (8, 40), (20, 133), (50, 50), (3, 12)]
    f_xs = [0.25, 0.8, 1.5, 3.0, 6.0]
    f_err = max(abs(f_cdf(x, d1, d2) - f_cdf_quadrature(x, d1, d2))
                for d1, d2 in f_dfs for x in f_xs)
    ident = max(abs(t_cdf(0.0, df) - 0.5) for df in t_dfs)
    ident = max(ident, max(abs(f_cdf(1.0, d, d) - 0.5) for d in (1, 7, 40, 133)))
    ok = t_err <= 1e-8 and f_err <= 1e-8 and ident <= 1e-12
    _report("3 special-function accuracy", ok,
            f"t err {t_err:.2e}, F err {f_err:.2e}, identities {ident:.2e} "
            f"({len(t_dfs) * len(t_xs)}+{len(f_dfs) * len(f_xs)} grid points)")


def test_criterion_04_size_calibration():
    cfg = TestConfig(alpha=0.05, rng_seed=7)
    reps = 200
    rejections = 0
    for i in range(reps):
        traj = iid_trajectory(300, 3, seed=9000 + i)
        res = lag_test(traj, 1, cfg, np.random.default_rng(5000 + i))
        rejections += res.reject
    rate = rejections / reps
    _report("4 size calibration (iid null, k=1)", 0.01 <= rate <= 0.12,
            f"rejection rate {rate:.3f} over {reps} replications, band [0.01, 0.12]")


def test_criterion_05_order_recovery():
    cfg = TestConfig(alpha=0.05, k_max=3, rng_seed=11)
    reps = 100
    orders = []
    for i in range(reps):
        traj = skip_order2_trajectory(0.9, 1000, seed=3000 + i)
        est = estimate_order(traj, cfg, np.random.default_rng(4000 + i))
        orders.append(est.order)
    orders = np.asarray(orders)
    rate2 = float(np.mean(orders == 2))
    rate1 = float(np.mean(orders == 1))
    _report("5 order recovery (second-order process)",
            rate2 >= 0.60 and rate1 <= 0.10,
            f"order-2 rate {rate2:.2f} (need >= 0.60), "
            f"order-1 rate {rate1:.2f} (need <= 0.10)")


def _time_reversed(P):
    """Transition matrix of the stationary chain P run backwards in time."""
    vals, vecs = np.linalg.eig(P.T)
    pi = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    pi /= pi.sum()
    return P.T * pi[None, :] / pi[:, None]


def test_criterion_06_estimator_oracle_agreement():
    P = np.array([[0.70, 0.20, 0.10],
                  [0.15, 0.60, 0.25],
                  [0.05, 0.35, 0.60]])
    embed = np.array([-1.2, 0.0, 1.4])
    rng = np.random.default_rng(17)
    idx = np.empty(5000, dtype=int)
    idx[0] = 0
    for t in range(1, 5000):
        idx[t] = rng.choice(3, p=P[idx[t - 1]])
    freqs = np.linspace(-3.0, 3.0, 25)[:, None]
    fwd, bwd = implied_ccf(embed[idx][:, None], freqs)
    # every leave-one-out fit of the lag-1 test against the exact CCF of the
    # state it conditions on: X_s forward, X_{t+1} of the reversed chain backward
    sup_err = {}
    for name, fitted, chain, cond in (("forward", fwd, P, idx[:-1]),
                                      ("backward", bwd, _time_reversed(P), idx[1:])):
        exact = np.array([[exact_ccf_discrete(chain, embed, f, si) for si in range(3)]
                          for f in freqs])
        sup_err[name] = float(np.abs(fitted - exact[:, cond]).max())
    _report("6 lag-test kernel CCFs vs discrete oracle", max(sup_err.values()) <= 0.05,
            f"sup error forward {sup_err['forward']:.4f}, backward "
            f"{sup_err['backward']:.4f} over {len(freqs)} frequencies x "
            f"{fwd.shape[1]} windows at T=5000")


def test_criterion_07_statistic_nullity_and_symmetry():
    rng = np.random.default_rng(23)
    worst_null = 0.0
    worst_conj = 0.0
    draws = 0
    for ti in range(10):
        traj = standardize(iid_trajectory(120, 2, seed=600 + ti))
        for _ in range(10):
            k = int(rng.integers(1, 6))
            mu = rng.standard_normal(2)
            nu = rng.standard_normal(2)
            # frequency pairs (0, nu), (mu, 0) and (mu, nu), then all negated
            mus = np.stack([np.zeros(2), mu, mu])
            nus = np.stack([nu, np.zeros(2), nu])
            s = q_products(*loo_window_residuals(traj.states, k, mus, nus), k).mean(axis=1)
            s_neg = q_products(*loo_window_residuals(traj.states, k, -mus, -nus),
                               k).mean(axis=1)
            worst_null = max(worst_null, abs(s[0]), abs(s[1]))
            worst_conj = max(worst_conj, abs(s_neg[2] - np.conj(s[2])))
            draws += 1
    ok = worst_null == 0.0 and worst_conj <= 1e-12
    _report("7 statistic nullity and conjugate symmetry", ok,
            f"{draws} draws of the lag test's residual products at q = k+1, "
            f"zero-frequency |S| = {worst_null:.1e} (exact), "
            f"conjugation gap {worst_conj:.1e}")


def test_criterion_08_determinism_and_parallel_invariance(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "kind": "var", "name": "corpus", "length": 120,
        "coeffs": [[[0.5, 0.1, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]]],
        "noise_cov": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    }))
    corpus = tmp_path / "corpus"
    assert main(["synth", str(spec), "--count", "50", "--seed", "1",
                 "--out", str(corpus)]) == 0
    out1, out8 = tmp_path / "jobs1", tmp_path / "jobs8"
    assert main(["test", str(corpus), "--seed", "42", "--jobs", "1",
                 "--out", str(out1)]) == 0
    assert main(["test", str(corpus), "--seed", "42", "--jobs", "8",
                 "--out", str(out8)]) == 0
    b1 = (out1 / "results.json").read_bytes()
    b8 = (out8 / "results.json").read_bytes()
    _report("8 determinism and parallel invariance", b1 == b8,
            f"50-trajectory corpus, results.json {len(b1)} bytes, jobs 1 vs 8")


def test_criterion_09_ingestion_geometry(tmp_path):
    _, y = latlon_to_local(1.0, 0.0, 0.0, 0.0, 6_371_000.0)
    geom_ok = abs(y - 111_194.93) <= 0.01

    lines = ["time_s,lead_x,lead_y,follow_x,follow_y"]
    for i in range(200):
        lines.append(f"{i},{40 + 6.0 * i},0.0,{2.5 * i},0.0")
    raw = tmp_path / "uniform.csv"
    raw.write_text("\n".join(lines) + "\n")
    parts = ingest_file(raw, IngestConfig(resample_dt=1.0, segment_length=120.0))
    traj = parts[0]
    pipeline_ok = (
        np.unique(traj.states[:, 0]).tolist() == [6.0]
        and np.unique(traj.states[:, 1]).tolist() == [2.5]
        and np.all(traj.actions == 0.0)
    )
    _report("9 ingestion geometry", geom_ok and bool(pipeline_ok),
            f"meters per degree latitude {y:.2f}; uniform-motion pipeline exact")


def test_criterion_10_summary_arithmetic():
    orders = [1] * 15 + [2, 2, 3, 4, 5, 6]
    summary = summarize_orders(orders)
    ok = summary.n == 21 and round(summary.pct_mp, 2) == 71.43
    _report("10 summary arithmetic", ok,
            f"n={summary.n}, %MP={summary.pct_mp:.2f} vs 71.43")
