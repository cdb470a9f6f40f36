"""Low-rank decomposition of small convolution kernels.

A kernel ``K[n1, *rest]`` is approximated by the leading terms of the SVD
of its first-axis unfolding ``K.reshape(n1, -1)``, with ``sqrt(sigma)``
absorbed into each factor so both factors have balanced magnitudes.  Term
``i`` is a vector ``left[n1]`` and a tensor ``right[*rest]``.  For a 2-way
kernel the unfolding is the kernel itself; for a Conv3D filter
``[kt, kx, ky]`` the rank-1 term is the temporal vector and the spatial
kernel that a Conv2.5D layer (``SeparableConv`` with groups
``((1, 2), (0,))``) stores as its two stages.  The CLI's ``compress``
command uses it to truncate the kernels of a trained full convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import frobenius_norm, svd_small

__all__ = [
    "KernelDecomposition",
    "decompose_2d",
    "decompose_3d",
    "reconstruct",
    "residual_norm",
]


@dataclass(frozen=True)
class KernelDecomposition:
    """Sum of outer products ``left ⊗ right`` approximating a kernel of ``shape``.

    Each term is ``(left, right)`` with ``left.shape + right.shape == shape``.
    """

    shape: tuple[int, ...]
    terms: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        for term in self.terms:
            if len(term) != 2 or term[0].shape + term[1].shape != tuple(self.shape):
                raise ValueError(f"each term must be (left, right) with left.shape + "
                                 f"right.shape == {tuple(self.shape)}")


def _truncate(kernel: np.ndarray, ndim: int, r: int) -> KernelDecomposition:
    """The ``r`` leading singular triples of ``kernel.reshape(n1, -1)``.

    Term ``i`` is ``(sqrt(s_i) u_i, sqrt(s_i) v_i.reshape(rest))``, so the
    truncation residual is exactly the root-sum-square of the discarded
    singular values (Eckart–Young).  ``svd_small`` refuses an unfolding
    longer than 64 on a side.
    """
    if kernel.ndim != ndim:
        raise ValueError(f"decompose_{ndim}d expects a rank-{ndim} kernel, got rank {kernel.ndim}")
    n1, rest = kernel.shape[0], kernel.shape[1:]
    unfolding = kernel.reshape(n1, -1)
    max_rank = min(unfolding.shape)
    if not 1 <= r <= max_rank:
        raise ValueError(f"rank {r} out of range 1..{max_rank} for kernel {kernel.shape}")
    sigma, u, v = svd_small(unfolding)
    terms = tuple((np.sqrt(sigma[i]) * u[:, i], (np.sqrt(sigma[i]) * v[:, i]).reshape(rest))
                  for i in range(r))
    return KernelDecomposition(kernel.shape, terms)


def decompose_2d(kernel: np.ndarray, r: int) -> KernelDecomposition:
    """Keep the ``r`` leading singular triples of a 2-way kernel, ``1 <= r <= min(shape)``."""
    return _truncate(kernel, 2, r)


def decompose_3d(kernel: np.ndarray, r: int) -> KernelDecomposition:
    """Keep ``r`` terms of a 3-way kernel's unfolding, ``1 <= r <= min(n1, n2 * n3)``."""
    return _truncate(kernel, 3, r)


def reconstruct(decomp: KernelDecomposition) -> np.ndarray:
    """Sum the outer products of all stored terms."""
    out = np.zeros(decomp.shape)
    for left, right in decomp.terms:
        out += np.multiply.outer(left, right)
    return out


def residual_norm(kernel: np.ndarray, decomp: KernelDecomposition) -> float:
    """Frobenius norm of the approximation error ``K - reconstruct(d)``."""
    if kernel.shape != decomp.shape:
        raise ValueError(f"kernel shape {kernel.shape} != decomposition shape {decomp.shape}")
    return frobenius_norm(kernel - reconstruct(decomp))
