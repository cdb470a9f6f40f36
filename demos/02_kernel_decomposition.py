#!/usr/bin/env python3
"""Low-rank kernel decomposition via the thin small-matrix SVD.

A kernel ``K[n1, *rest]`` is cut along its first-axis unfolding
``K.reshape(n1, -1)``: the truncation residual is the unfolding's
singular-value tail, and the rank-1 cut of a Conv3D filter ``[kt, kx,
ky]`` is a temporal vector and a spatial kernel, the two stages of a
Conv2.5D layer.
"""

import numpy as np

from sepconvwave.kernel_decomp import decompose_2d, decompose_3d, reconstruct, residual_norm
from sepconvwave.nn import SeparableConv
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

# a 3-way kernel is cut along its [kt, kx * ky] unfolding: the same identity
kt, kx, ky = 7, 5, 5
k3 = rng.standard_normal((kt, kx, ky))
sigma3 = svd_small(k3.reshape(kt, -1)).singular_values
for r in (1, 2, kt):
    res = residual_norm(k3, decompose_3d(k3, r))
    print(f"3-way rank {r}: residual {res:.6f}  unfolding sigma-tail {np.sqrt(np.sum(sigma3[r:] ** 2)):.6f}")

# rank 1 of each filter is a Conv2.5D stage pair: spatial kernel, then temporal vector
n_f = 3
filters = rng.standard_normal((n_f, kt, kx, ky))
cuts = [decompose_3d(k, 1) for k in filters]
(left, right), = cuts[0].terms
print(f"rank-1 term: temporal {left.shape}, spatial {right.shape}: "
      f"{kt + kx * ky} weights per filter instead of {kt * kx * ky}")
sep = SeparableConv(1, n_f, (kt, kx, ky), rng, groups=((1, 2), (0,)))
sep.set_stage_kernels([np.stack([d.terms[0][1] for d in cuts]), np.stack([d.terms[0][0] for d in cuts])])
same = np.array_equal(sep.equivalent_kernels(), np.stack([reconstruct(d) for d in cuts]))
print("Conv2.5D loaded with the cuts reproduces the rank-1 kernels bit for bit:", same)
