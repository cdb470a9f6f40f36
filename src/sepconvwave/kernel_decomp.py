"""Low-rank decomposition of small convolution kernels.

A 2-way kernel is approximated by the leading terms of its SVD, with
``sqrt(sigma)`` absorbed into each factor so the pair of 1D vectors has
balanced magnitudes.  A 3-way kernel is decomposed slice by slice along
its last axis, every slice contributing rank-one terms tagged with the
unit basis vector that selects the slice.  The CLI's ``compress``
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
    """Sum of outer products approximating a 2-way or 3-way kernel.

    Each term is a tuple of 1D factor vectors, one per kernel axis; for a
    3-way kernel the third factor is a unit basis vector selecting the
    source slice.
    """

    shape: tuple[int, ...]
    terms: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        if len(self.shape) not in (2, 3):
            raise ValueError(f"kernel must be 2-way or 3-way, got shape {self.shape}")
        for term in self.terms:
            if len(term) != len(self.shape):
                raise ValueError("term arity does not match the kernel's number of axes")


def decompose_2d(kernel: np.ndarray, r: int) -> KernelDecomposition:
    """Keep the ``r`` leading singular triples of a 2-way kernel.

    Term ``i`` is ``(sqrt(s_i) u_i, sqrt(s_i) v_i)``, so the truncation
    residual is exactly the root-sum-square of the discarded singular
    values.
    """
    if kernel.ndim != 2:
        raise ValueError(f"decompose_2d expects a rank-2 kernel, got rank {kernel.ndim}")
    max_rank = min(kernel.shape)
    if not 1 <= r <= max_rank:
        raise ValueError(f"rank {r} out of range 1..{max_rank} for kernel {kernel.shape}")
    sigma, u, v = svd_small(kernel)
    terms = []
    for i in range(r):
        w = np.sqrt(sigma[i])
        terms.append((w * u[:, i], w * v[:, i]))
    return KernelDecomposition(kernel.shape, tuple(terms))


def decompose_3d(kernel: np.ndarray, r: int) -> KernelDecomposition:
    """Decompose a 3-way kernel slice by slice along its last axis.

    Slice ``l`` (a 2-way kernel) contributes ``r`` rank-one terms, each
    completed by the basis vector ``I_l`` so the sum of outer products
    rebuilds the stack of slices.
    """
    if kernel.ndim != 3:
        raise ValueError(f"decompose_3d expects a rank-3 kernel, got rank {kernel.ndim}")
    n1, n2, n3 = kernel.shape
    if not 1 <= r <= min(n1, n2):
        raise ValueError(f"rank {r} out of range 1..{min(n1, n2)} for kernel {kernel.shape}")
    terms = []
    for l in range(n3):
        basis = np.zeros(n3)
        basis[l] = 1.0
        for left, right in decompose_2d(kernel[:, :, l], r).terms:
            terms.append((left, right, basis))
    return KernelDecomposition(kernel.shape, tuple(terms))


def reconstruct(decomp: KernelDecomposition) -> np.ndarray:
    """Sum the outer products of all stored terms."""
    out = np.zeros(decomp.shape)
    for term in decomp.terms:
        acc = term[0]
        for factor in term[1:]:
            acc = np.multiply.outer(acc, factor)
        out += acc
    return out


def residual_norm(kernel: np.ndarray, decomp: KernelDecomposition) -> float:
    """Frobenius norm of the approximation error ``K - reconstruct(d)``."""
    if kernel.shape != decomp.shape:
        raise ValueError(f"kernel shape {kernel.shape} != decomposition shape {decomp.shape}")
    return frobenius_norm(kernel - reconstruct(decomp))

