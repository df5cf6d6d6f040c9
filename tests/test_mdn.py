import numpy as np
import pytest

from markovorder import mdn
from markovorder.ccf import window_embed
from markovorder.errors import DimensionMismatchError, InsufficientDataError
from markovorder.mdn import (
    _init_params,
    _loss_and_grads,
    _mixture_cf,
    _train,
    window_residuals,
)


def set_constants(monkeypatch, **values):
    """Patch the hyperparameters, e.g. ``components=2`` sets ``_COMPONENTS``."""
    for name, value in values.items():
        monkeypatch.setattr(mdn, f"_{name.upper()}", value)


@pytest.fixture
def small(monkeypatch):
    """A network small enough to train in a few milliseconds."""
    set_constants(monkeypatch, components=2, hidden=8, epochs=50)


def per_array_train(z, y, rng):
    """The Adam loop over each parameter array in turn, the reference for
    :func:`markovorder.mdn._train`'s update of one flat vector."""
    C, d = mdn._COMPONENTS, y.shape[1]
    params = _init_params(z.shape[1], d, rng)
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(va) for k, va in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for step in range(1, mdn._EPOCHS + 1):
        _, grads = _loss_and_grads(params, z, y, C, d)
        for key, g in grads.items():
            m[key] = beta1 * m[key] + (1 - beta1) * g
            v[key] = beta2 * v[key] + (1 - beta2) * g * g
            m_hat = m[key] / (1 - beta1 ** step)
            v_hat = v[key] / (1 - beta2 ** step)
            params[key] = params[key] - mdn._LR * m_hat / (np.sqrt(v_hat) + eps)
    return params


@pytest.mark.parametrize("setting", ["default", "small"])
def test_flat_adam_equals_per_array_adam(setting, request):
    if setting == "small":
        request.getfixturevalue("small")
    states = np.random.default_rng(11).standard_normal((120, 3))
    emb = window_embed(states, 2)
    got = _train(emb[:-1], states[2:], np.random.default_rng(12))
    want = per_array_train(emb[:-1], states[2:], np.random.default_rng(12))
    assert list(got) == list(want)
    for key in want:
        assert got[key].shape == want[key].shape
        assert (got[key] == want[key]).all(), key


def test_gradients_match_finite_differences(monkeypatch):
    set_constants(monkeypatch, components=2, hidden=4)
    rng = np.random.default_rng(0)
    z = rng.standard_normal((12, 3))
    y = rng.standard_normal((12, 2))
    params = _init_params(3, 2, rng)
    _, grads = _loss_and_grads(params, z, y, 2, 2)
    eps = 1e-6
    for key in params:
        flat = params[key].reshape(-1)
        for idx in (0, flat.size // 2, flat.size - 1):
            orig = flat[idx]
            flat[idx] = orig + eps
            up, _ = _loss_and_grads(params, z, y, 2, 2)
            flat[idx] = orig - eps
            down, _ = _loss_and_grads(params, z, y, 2, 2)
            flat[idx] = orig
            numeric = (up - down) / (2 * eps)
            assert grads[key].reshape(-1)[idx] == pytest.approx(numeric, abs=1e-5)


def test_linear_gaussian_recovers_analytic_cf(monkeypatch):
    rng = np.random.default_rng(42)
    T = 2000
    x = np.empty(T)
    x[0] = rng.standard_normal()
    noise = 0.5 * rng.standard_normal(T)
    for t in range(1, T):
        x[t] = 0.6 * x[t - 1] + noise[t]
    set_constants(monkeypatch, components=1, hidden=16, epochs=400, lr=0.05)
    params = _train(x[:-1, None], x[1:, None], np.random.default_rng(1))
    # conditional law is N(0.6 x, 0.25); its CF is exp(i mu 0.6 x - mu^2 0.25 / 2)
    mus = np.array([[0.5], [1.0], [2.0]])
    points = np.array([[-1.0], [0.0], [1.0]])
    got = _mixture_cf(params, mus, points)
    want = np.exp(1j * mus * 0.6 * points.T - 0.5 * mus ** 2 * 0.25)
    assert np.abs(got - want).max() <= 0.1


def test_zero_frequency_exact_one(small):
    rng = np.random.default_rng(5)
    states = rng.standard_normal((80, 2))
    params = _train(states[:-1], states[1:], np.random.default_rng(2))
    freqs = np.array([[0.0, 0.0], [0.4, -1.0]])
    values = _mixture_cf(params, freqs, states[:10])
    assert (values[0] == 1.0 + 0.0j).all()
    # a zero frequency's residual exp(0) - 1 is exactly zero in both tables
    fwd, bwd = window_residuals(states, 2, freqs, freqs[::-1],
                                np.random.default_rng(2))
    assert (fwd[0] == 0.0).all() and (bwd[1] == 0.0).all()


def test_modulus_bounded(small):
    rng = np.random.default_rng(6)
    states = rng.standard_normal((100, 1))
    params = _train(states[:-1], states[1:], np.random.default_rng(3))
    freqs = rng.standard_normal((30, 1))
    points = rng.standard_normal((10, 1))
    assert np.abs(_mixture_cf(params, freqs, points)).max() <= 1.0 + 1e-12


def test_deterministic_given_seed(small):
    rng = np.random.default_rng(7)
    states = rng.standard_normal((60, 1))
    mus, nus = rng.standard_normal((4, 1)), rng.standard_normal((4, 1))
    a = window_residuals(states, 1, mus, nus, np.random.default_rng(9))
    b = window_residuals(states, 1, mus, nus, np.random.default_rng(9))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_preconditions(small):
    states = np.random.default_rng(8).standard_normal((5, 1))
    with pytest.raises(InsufficientDataError):
        window_residuals(states, 6, np.ones((1, 1)), np.ones((1, 1)),
                         np.random.default_rng(0))


@pytest.mark.parametrize("mus_shape, nus_shape", [((4, 3), (5, 3)), ((4, 2), (4, 2))])
def test_frequency_tables_mismatch_names_both_shapes(mus_shape, nus_shape, small):
    states = np.random.default_rng(16).standard_normal((60, 3))
    with pytest.raises(DimensionMismatchError) as info:
        window_residuals(states, 1, np.ones(mus_shape), np.ones(nus_shape),
                         np.random.default_rng(0))
    assert str(mus_shape) in str(info.value) and str(nus_shape) in str(info.value)


def test_backward_direction_fits(small):
    # the forward network trains on the first child of rng, the backward one
    # on the second; column t of the backward table conditions on the window
    # X_{t+1}..X_{t+k}
    rng = np.random.default_rng(10)
    states = rng.standard_normal((120, 1))
    mus, nus = rng.standard_normal((3, 1)), rng.standard_normal((3, 1))
    k, n = 2, 118
    fwd, bwd = window_residuals(states, k, mus, nus, np.random.default_rng(4))
    assert fwd.shape == bwd.shape == (3, n)
    children = np.random.default_rng(4)
    first, second = children.spawn(1)[0], children.spawn(1)[0]
    emb = window_embed(states, k)
    params = _train(emb[:-1], states[k:], first)
    want = np.exp(1j * (mus @ states[k:].T)) - _mixture_cf(params, mus, emb[:-1])
    np.testing.assert_array_equal(fwd, want)
    params = _train(emb[1:], states[:n], second)
    want = np.exp(1j * (nus @ states[:n].T)) - _mixture_cf(params, nus, emb[1:])
    np.testing.assert_array_equal(bwd, want)
    assert np.abs(bwd).max() <= 2.0 + 1e-12
