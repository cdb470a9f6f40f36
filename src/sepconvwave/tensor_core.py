"""Dense tensor algebra used throughout the package.

Tensors are plain ``numpy.ndarray`` objects in float64, row-major (last
index fastest).  This module provides the shape algebra (reshape,
transpose, outer products), reference valid convolutions used as oracles
by the neural-network layers, and a thin SVD for small matrices.
Everything here is a pure function; inputs are never mutated.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "SvdResult",
    "as_tensor",
    "reshape",
    "transpose",
    "outer",
    "conv2d_valid",
    "conv_valid",
    "conv_multichannel",
    "svd_small",
    "frobenius_norm",
]


class SvdResult(NamedTuple):
    """Thin SVD ``M = U diag(s) V^T`` with ``k = min(n, m)`` triples.

    ``singular_values`` are non-increasing and non-negative,
    ``left_vectors`` is ``n x k`` and ``right_vectors`` is ``m x k``,
    both with orthonormal columns.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray


def as_tensor(data) -> np.ndarray:
    """Coerce input to a contiguous float64 array."""
    return np.ascontiguousarray(data, dtype=np.float64)


def reshape(t: np.ndarray, new_shape: Sequence[int]) -> np.ndarray:
    """Reshape without touching the flat data sequence.

    Raises ``ValueError`` when the element counts differ.
    """
    new_shape = tuple(int(n) for n in new_shape)
    if any(n < 1 for n in new_shape):
        raise ValueError(f"all extents must be >= 1, got {new_shape}")
    if int(np.prod(new_shape)) != t.size:
        raise ValueError(
            f"cannot reshape {t.shape} ({t.size} elements) to {new_shape} "
            f"({int(np.prod(new_shape))} elements)"
        )
    return t.reshape(new_shape)


def transpose(t: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Permute axes: ``out[idx o perm] == t[idx]`` for every multi-index.

    ``perm`` must be a permutation of ``0..t.ndim-1``.
    """
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(t.ndim)):
        raise ValueError(f"{perm} is not a permutation of axes of rank-{t.ndim} tensor")
    return np.transpose(t, perm)


def outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Outer product of two vectors: ``out[i, j] = u[i] * v[j]``."""
    if u.ndim != 1 or v.ndim != 1:
        raise ValueError(f"outer expects rank-1 tensors, got ranks {u.ndim} and {v.ndim}")
    return np.outer(u, v)


def conv2d_valid(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid 2D cross-correlation of ``x`` with ``kernel`` (no flip).

    ``y(i, j) = sum_{l,h} x(l+i, h+j) * K(l, h)`` with output shape
    ``(n - k1 + 1, m - k2 + 1)``.  Stride 1, no padding.
    """
    if x.ndim != 2 or kernel.ndim != 2:
        raise ValueError("conv2d_valid expects rank-2 input and kernel")
    return conv_valid(x, kernel)


def conv_valid(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """N-dimensional valid cross-correlation (shared engine for 1D/2D/3D).

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


def conv_multichannel(
    x: np.ndarray,
    kernels: np.ndarray,
    activation: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Multi-channel valid convolution, one kernel per output channel.

    Output channel ``j`` is ``sigma(sum_i x[i] * K[j])``: each kernel is
    applied to every input channel and the per-channel responses are
    summed, which equals convolving the channel-summed input.
    """
    if x.ndim != 3 or kernels.ndim != 3:
        raise ValueError("conv_multichannel expects x[c, n, m] and kernels[c_k, n_k, m_k]")
    summed = x.sum(axis=0)
    y = np.stack([conv_valid(summed, k) for k in kernels])
    if activation is not None:
        y = activation(y)
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
