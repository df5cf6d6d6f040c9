"""Conditional Gaussian-mixture CCF estimator.

A small mixture density network: one tanh hidden layer feeding mixture
weights, per-component diagonal means and log-scales of the target given the
conditioning vector.  Trained by full-batch Adam on the negative conditional
log-likelihood with handwritten gradients (checked against finite
differences in the test suite), so the only dependency is numpy and training
is bit-reproducible given a seeded generator.

The CCF of a fitted model is available in closed form: a mixture of Gaussian
characteristic functions ``sum_c pi_c(x) exp(i mu . m_c(x) - mu' S_c(x) mu / 2)``.
The lag test's residuals (:func:`window_residuals`) are in sample, at the
fixed hyperparameters ``_COMPONENTS``, ``_HIDDEN``, ``_EPOCHS`` and ``_LR``
(read at call time); its size on the canonical VAR(1) null (d=3, T=120,
alpha 0.05, 100 replications) measured 0.06 at k=1.
"""

from __future__ import annotations

import numpy as np

from .ccf import _check_frequencies, window_embed
from .errors import TrainingDivergedError

__all__ = ["window_residuals"]

_LOG_2PI = np.log(2.0 * np.pi)
_COMPONENTS, _HIDDEN, _EPOCHS, _LR = 3, 32, 200, 0.02


def _init_params(p: int, d: int, rng: np.random.Generator) -> dict:
    H, C = _HIDDEN, _COMPONENTS
    scale = 1.0 / np.sqrt(p)
    return dict(
        W1=rng.standard_normal((p, H)) * scale, b1=np.zeros(H),
        Wa=rng.standard_normal((H, C)) * 0.1, ba=np.zeros(C),
        Wm=rng.standard_normal((H, C * d)) * 0.1,
        bm=np.tile(rng.standard_normal(d) * 0.1, C),
        Ws=rng.standard_normal((H, C * d)) * 0.01, bs=np.zeros(C * d),
    )


def _network(params: dict, z: np.ndarray, C: int, d: int):
    h = np.tanh(z @ params["W1"] + params["b1"])
    logits = h @ params["Wa"] + params["ba"]
    means = (h @ params["Wm"] + params["bm"]).reshape(-1, C, d)
    log_scales = (h @ params["Ws"] + params["bs"]).reshape(-1, C, d)
    return h, logits, means, log_scales


def _log_softmax(a: np.ndarray) -> np.ndarray:
    a = a - a.max(axis=1, keepdims=True)
    return a - np.log(np.exp(a).sum(axis=1, keepdims=True))


def _loss_and_grads(params: dict, z: np.ndarray, y: np.ndarray, C: int, d: int):
    n = z.shape[0]
    h, logits, means, log_scales = _network(params, z, C, d)
    scales = np.exp(log_scales)
    log_pi = _log_softmax(logits)
    resid = (y[:, None, :] - means) / scales                    # (n, C, d)
    comp_ll = (-0.5 * resid ** 2 - log_scales - 0.5 * _LOG_2PI).sum(axis=2)
    inner = log_pi + comp_ll                                    # (n, C)
    m = inner.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(inner - m).sum(axis=1))
    loss = -lse.mean()

    resp = np.exp(inner - lse[:, None])                         # responsibilities
    pi = np.exp(log_pi)
    d_logits = (pi - resp) / n
    d_means = (-resp[:, :, None] * resid / scales) / n
    d_log_scales = (-resp[:, :, None] * (resid ** 2 - 1.0)) / n

    d_means_flat = d_means.reshape(n, C * d)
    d_ls_flat = d_log_scales.reshape(n, C * d)
    grads = dict(
        Wa=h.T @ d_logits, ba=d_logits.sum(axis=0),
        Wm=h.T @ d_means_flat, bm=d_means_flat.sum(axis=0),
        Ws=h.T @ d_ls_flat, bs=d_ls_flat.sum(axis=0),
    )
    d_h = d_logits @ params["Wa"].T + d_means_flat @ params["Wm"].T + d_ls_flat @ params["Ws"].T
    d_pre = d_h * (1.0 - h ** 2)
    grads["W1"] = z.T @ d_pre
    grads["b1"] = d_pre.sum(axis=0)
    return loss, grads


def _train(z: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> dict:
    """Adam on one flat parameter vector; the returned arrays are its views."""
    d = y.shape[1]
    init = _init_params(z.shape[1], d, rng)
    theta = np.concatenate([a.ravel() for a in init.values()])
    bounds = np.cumsum([a.size for a in init.values()])[:-1]
    params = {key: part.reshape(a.shape)
              for (key, a), part in zip(init.items(), np.split(theta, bounds))}
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for step in range(1, _EPOCHS + 1):
        loss, grads = _loss_and_grads(params, z, y, _COMPONENTS, d)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at step {step}")
        g = np.concatenate([grads[key].ravel() for key in params])
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** step)
        v_hat = v / (1 - beta2 ** step)
        theta -= _LR * m_hat / (np.sqrt(v_hat) + eps)
    return params


def _mixture_cf(params: dict, freqs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(M, m) closed-form CCF of the fitted mixture at each conditioning
    point; exact 1 at zero frequency."""
    _, logits, means, log_scales = _network(params, points, _COMPONENTS, freqs.shape[1])
    pi, scales = np.exp(_log_softmax(logits)), np.exp(log_scales)
    phase = np.einsum("ncd,fd->fnc", means, freqs)
    decay = 0.5 * np.einsum("ncd,fd->fnc", scales ** 2, freqs ** 2)
    values = (pi[None, :, :] * np.exp(1j * phase - decay)).sum(axis=2)
    values[~freqs.any(axis=1)] = 1.0 + 0.0j
    return values


def window_residuals(states: np.ndarray, k: int, mus: np.ndarray, nus: np.ndarray,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """In-sample forward and backward mixture CCF residuals at lag k, laid
    out as :func:`markovorder.ccf.loo_window_residuals` lays out its tables,
    after its check of ``mus`` and ``nus``.

    The forward network trains first, then the backward one, each on its own
    child of ``rng``; each is evaluated on the pairs it was trained on.
    """
    _check_frequencies(mus, nus, states.shape[1])
    n = states.shape[0] - k
    emb = window_embed(states, k)
    fwd = _train(emb[:-1], states[k:], rng.spawn(1)[0])
    bwd = _train(emb[1:], states[:n], rng.spawn(1)[0])
    fwd_res = np.exp(1j * (mus @ states[k:].T)) - _mixture_cf(fwd, mus, emb[:-1])
    bwd_res = np.exp(1j * (nus @ states[:n].T)) - _mixture_cf(bwd, nus, emb[1:])
    return fwd_res, bwd_res
