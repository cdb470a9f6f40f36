#!/usr/bin/env python3
"""A-priori separable convolution layers versus full kernels.

Shows the core trick: a layer holding one small 1D kernel per axis per
filter reproduces the full convolution whose kernels are the outer
products of the stages, at a parameter cost of sum-of-extents instead of
product-of-extents. Truncating a full kernel to rank one makes the output
gap exactly the convolution with the truncation residual.
"""

import numpy as np

from sepconvwave.kernel_decomp import decompose_2d
from sepconvwave.nn import Conv, SeparableConv
from sepconvwave.tensor_core import conv_valid

rng = np.random.default_rng(0)

# --- a separable layer equals the full convolution with its outer-product kernels
layer = SeparableConv(c_in=1, n_f=3, extents=(5, 5), rng=rng)
x = rng.standard_normal((2, 1, 20, 20))
y_sep = layer.forward(x)

full_kernels = layer.equivalent_kernels()  # [n_f, 5, 5] outer products
y_full = np.stack(
    [
        np.stack([conv_valid(x[b, 0], k) for k in full_kernels]) + layer.bias.value[:, None, None]
        for b in range(x.shape[0])
    ]
)
print("separable vs full convolution, max |difference|:", np.abs(y_sep - y_full).max())

# --- parameter budget: sum instead of product of kernel extents
for extents in [(5, 5), (7, 5, 5)]:
    full, sep = (
        sum(p.size for _, p in cls(1, 8, extents, np.random.default_rng(1)).parameters())
        for cls in (Conv, SeparableConv)
    )
    print(f"8 filters of {extents}, with biases: full {full} weights, separable {sep}")

# --- rank-1 truncation: Y - Yhat is the convolution with the residual R
k_full = rng.standard_normal((4, 4))
(left, right), = decompose_2d(k_full, 1).terms
k_rank1 = np.outer(left, right)
residual = k_full - k_rank1

field = rng.standard_normal((16, 16))
gap = conv_valid(field, k_full) - conv_valid(field, k_rank1)
via_residual = conv_valid(field, residual)
print("residual identity, max |difference|:", np.abs(gap - via_residual).max())
