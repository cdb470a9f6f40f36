#!/usr/bin/env python3
"""Low-rank kernel decomposition via the thin small-matrix SVD.

Decomposes 2-way and 3-way kernels, checks the truncation residual
against the singular-value tail, and shows the per-slice structure of the
3-way case.
"""

import numpy as np

from sepconvwave.kernel_decomp import decompose_2d, decompose_3d, reconstruct, residual_norm
from sepconvwave.tensor_core import svd_small

rng = np.random.default_rng(1)

k2 = rng.standard_normal((6, 6))
sigma = svd_small(k2).singular_values
print("singular values:", np.round(sigma, 4))
for r in range(1, 7):
    d = decompose_2d(k2, r)
    res = residual_norm(k2, d)
    tail = np.sqrt(np.sum(sigma[r:] ** 2))
    print(f"rank {r}: residual {res:.6f}  sigma-tail {tail:.6f}  terms {len(d.terms)}")

# full-rank reconstruction is exact
d_full = decompose_2d(k2, 6)
print("full-rank reconstruction error:", residual_norm(k2, d_full))

# 3-way kernels decompose slice by slice along the last axis
k3 = rng.standard_normal((5, 5, 3))
d3 = decompose_3d(k3, 2)
print("3-way terms:", len(d3.terms), "(slices x rank)")
print("3-way residual at rank 2:", residual_norm(k3, d3))
per_slice = [residual_norm(k3[:, :, l], decompose_2d(k3[:, :, l], 2)) for l in range(3)]
print("root-sum-square of per-slice residuals:", np.sqrt(np.sum(np.square(per_slice))))

print("reconstructed shape:", reconstruct(d3).shape)
