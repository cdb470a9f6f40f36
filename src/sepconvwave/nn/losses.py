"""Training losses and their gradients.

The regression objective is the mean squared error over all entries.
The time-regularization penalty couples a displacement prediction with a
velocity prediction: forward differences of the displacement along the
time axis (axis 1) should match the velocity at all but the last time
index.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mse", "mse_grad", "euler_residual", "euler_residual_grads"]


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
