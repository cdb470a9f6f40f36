"""Adam optimizer and the learning-rate decay schedule."""

from __future__ import annotations

import numpy as np

from .layers import Parameter

__all__ = ["Adam", "lr_schedule"]


class Adam:
    """Adam with bias correction; per-parameter first/second moments."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list[Parameter], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self, lr: float | None = None):
        if lr is None:
            lr = self.lr
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1 ** t)
            v_hat = self.v[i] / (1 - self.beta2 ** t)
            p.value -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


def lr_schedule(
    epoch: float,
    total_epochs: int,
    lr0: float = 1e-3,
    lr_final: float = 1e-4,
    decay: bool = True,
) -> float:
    """Exponential decay from ``lr0`` to ``lr_final`` over the run.

    ``lr(e) = lr0 * (lr_final / lr0) ** (e / (total_epochs - 1))``, so the
    first epoch trains at ``lr0`` and the last exactly at ``lr_final``.
    With ``decay=False`` the rate stays at ``lr0``.
    """
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside 0..{total_epochs - 1}")
    if not decay or total_epochs == 1:
        return lr0
    return lr0 * (lr_final / lr0) ** (epoch / (total_epochs - 1))
