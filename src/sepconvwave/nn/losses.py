"""Training losses and their gradients.

The regression objective is the mean squared error over all entries.
Training scores it in block form (:func:`block_mse`): a model output
that ends in an m-fold repeat of a coarse tensor y is scored as y
against the block means t̄ of the targets, because over each block of
targets tᵢ

    Σᵢ (y − tᵢ)² = m (y − t̄)² + Σᵢ (tᵢ − t̄)²,

so the loss is (m Σ (y − t̄)² + Σ s)/N and its gradient on y is
2m (y − t̄)/N, with s each sample's spread Σ (t − t̄)² about its block
means (:func:`block_targets`) and N the number of full entries.  With
m = 1 this is :func:`mse` and :func:`mse_grad` bit for bit; those two
score a full output against full targets.

The time-regularization penalty couples a displacement prediction with a
velocity prediction: forward differences of the displacement along the
time axis (axis 1) should match the velocity at all but the last time
index.
"""

from __future__ import annotations

import numpy as np

from .layers import Upsample

__all__ = ["mse", "mse_grad", "block_targets", "block_mse", "euler_residual", "euler_residual_grads"]


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = (pred - target).ravel()
    return float(np.einsum("i,i->", diff, diff) / diff.size)


def mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    grad = pred - target
    grad *= 2.0 / pred.size
    return grad


def block_targets(target: np.ndarray, factors: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Block means of ``target`` and each sample's spread about them.

    ``target`` is ``[batch, ...]`` with one factor per per-sample axis,
    each dividing its extent.  The means average every ``factors`` block
    (per-sample shape divided by the factors), and the spread is
    ``Σ (t − t̄)²`` over each sample, shape ``[batch]``.  With every
    factor 1 the means equal ``target`` and the spread is 0.
    """
    if len(factors) != target.ndim - 1 or any(n % f for n, f in zip(target.shape[1:], factors)):
        raise ValueError(f"factors {factors} do not tile per-sample shape {target.shape[1:]}")
    # the block sum is the repeat's adjoint
    repeat = Upsample(factors)
    means = repeat.backward(target) / int(np.prod(factors))
    dev = repeat.forward(-means)  # a new array even when every factor is 1
    dev += target
    dev = dev.reshape(len(dev), -1)
    return means, np.einsum("bi,bi->b", dev, dev)


def block_mse(pred: np.ndarray, means: np.ndarray, spread: np.ndarray, m: int):
    """``(value, grad)``: the MSE of ``pred`` repeated ``m``-fold against its targets.

    The targets enter as their block means and per-sample spreads
    (:func:`block_targets`); ``grad`` is the gradient on ``pred``, and
    both come from one difference array.
    """
    if pred.shape != means.shape or spread.shape != pred.shape[:1]:
        raise ValueError(f"shape mismatch: {pred.shape} vs {means.shape}, spread {spread.shape}")
    diff = pred - means
    flat = diff.ravel()
    n = diff.size * m
    value = float((m * np.einsum("i,i->", flat, flat) + spread.sum()) / n)
    diff *= 2.0 * m / n
    return value, diff


def _euler_residual_field(u: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    if u.ndim < 2 or u.shape[1] < 2:
        raise ValueError("need at least 2 time samples on axis 1")
    return (u[:, 1:] - u[:, :-1]) / dt - v[:, :-1]


def euler_residual(u: np.ndarray, v: np.ndarray, dt: float) -> float:
    """Mean squared forward-difference residual ``(u_t+dt - u_t)/dt - v_t``.

    ``u`` and ``v`` are sampled on the same collocation set
    ``[batch, time, ...]``; differences run over all but the last time
    index.  Exactly zero when ``v`` equals the forward difference of
    ``u``.
    """
    r = _euler_residual_field(u, v, dt)
    return float(np.mean(r * r))


def euler_residual_grads(u: np.ndarray, v: np.ndarray, dt: float):
    """Gradients of :func:`euler_residual` with respect to ``u`` and ``v``."""
    r = _euler_residual_field(u, v, dt)
    scale = 2.0 / r.size
    gu = np.zeros_like(u)
    gu[:, 1:] += scale * r / dt
    gu[:, :-1] -= scale * r / dt
    gv = np.zeros_like(v)
    gv[:, :-1] = -scale * r
    return gu, gv
