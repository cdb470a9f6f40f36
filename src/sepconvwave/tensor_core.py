"""Dense tensor algebra used throughout the package.

Tensors are plain ``numpy.ndarray`` objects in float64, row-major (last
index fastest).  This module provides the reference N-dimensional valid
correlation ``conv_valid``, the oracle against which the network's
convolution engine is tested, a thin SVD for small matrices and the
Frobenius norm.  Everything here is a pure function; inputs are never
mutated.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["SvdResult", "conv_valid", "svd_small", "frobenius_norm"]


class SvdResult(NamedTuple):
    """Thin SVD ``M = U diag(s) V^T`` with ``k = min(n, m)`` triples.

    ``singular_values`` are non-increasing and non-negative,
    ``left_vectors`` is ``n x k`` and ``right_vectors`` is ``m x k``,
    both with orthonormal columns.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray


def conv_valid(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """N-dimensional valid cross-correlation (no kernel flip), stride 1.

    Accumulates one shifted slice of ``x`` per kernel tap; kernels are
    small so the loop runs over taps, not over output positions.
    """
    if x.ndim != kernel.ndim:
        raise ValueError(f"rank mismatch: input {x.ndim}, kernel {kernel.ndim}")
    out_shape = tuple(n - k + 1 for n, k in zip(x.shape, kernel.shape))
    if any(n < 1 for n in out_shape):
        raise ValueError(f"kernel {kernel.shape} larger than input {x.shape}")
    y = np.zeros(out_shape)
    for tap in np.ndindex(*kernel.shape):
        window = tuple(slice(t, t + n) for t, n in zip(tap, out_shape))
        y += kernel[tap] * x[window]
    return y


def frobenius_norm(t: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    return float(np.sqrt(np.sum(np.asarray(t, dtype=np.float64) ** 2)))


def svd_small(m: np.ndarray, max_dim: int = 64) -> SvdResult:
    """Thin SVD of a small matrix (LAPACK via ``np.linalg.svd``).

    Raises ``ValueError`` on inputs that are not rank 2 or are larger
    than ``max_dim`` per side.
    """
    if m.ndim != 2:
        raise ValueError(f"svd_small expects a rank-2 tensor, got rank {m.ndim}")
    if max(m.shape) > max_dim:
        raise ValueError(f"matrix {m.shape} exceeds max_dim={max_dim}")
    u, sigma, vt = np.linalg.svd(np.asarray(m, dtype=np.float64), full_matrices=False)
    return SvdResult(sigma, u, vt.T)
