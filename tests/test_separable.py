"""Separable layers against full convolutions built from their factors.

The key identities: a separable layer with stage kernels equals the full
convolution whose kernels are the outer products of the stages, and when
the stages come from a rank-1 truncation of full kernels, the output gap
Y - Yhat is exactly the convolution with the truncation residual R.
"""

import numpy as np

from sepconvwave.kernel_decomp import decompose_2d
from sepconvwave.nn import Conv, SeparableConv
from sepconvwave.tensor_core import conv_valid

MAX_ABS = 1e-10


def full_conv_output_nd(x, kernels, bias):
    """Oracle: per-sample ``conv_valid`` of the channel sum, one kernel per filter."""
    outs = []
    for b in range(x.shape[0]):
        summed = x[b].sum(axis=0)
        y = np.stack([conv_valid(summed, k) for k in kernels])
        outs.append(y + bias.reshape((-1,) + (1,) * (y.ndim - 1)))
    return np.stack(outs)


def test_two_stage_identity_kernels():
    rng = np.random.default_rng(31)
    layer = SeparableConv(c_in=2, n_f=1, extents=(1, 1), rng=rng)
    layer.set_stage_kernels([np.ones((1, 1)), np.ones((1, 1))])
    layer.bias.value[...] = 0.0
    x = rng.standard_normal((3, 2, 4, 5))
    out = layer.forward(x)
    assert np.max(np.abs(out[:, 0] - x.sum(axis=1))) < 1e-14


def test_matches_full_conv_2d():
    rng = np.random.default_rng(32)
    for _ in range(25):
        n_f = int(rng.integers(1, 5))
        c = int(rng.integers(1, 4))
        kt, kx = rng.integers(1, 6, size=2)
        layer = SeparableConv(c, n_f, (int(kt), int(kx)), rng=rng)
        x = rng.standard_normal((int(rng.integers(1, 4)), c, 10, 12))
        out = layer.forward(x)
        expected = full_conv_output_nd(x, layer.equivalent_kernels(), layer.bias.value)
        assert np.max(np.abs(out - expected)) < MAX_ABS


def test_matches_full_conv_3d_three_stages():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n_f = int(rng.integers(1, 4))
        exts = tuple(int(e) for e in rng.integers(1, 4, size=3))
        layer = SeparableConv(2, n_f, exts, rng=rng)
        x = rng.standard_normal((2, 2, 6, 6, 6))
        out = layer.forward(x)
        expected = full_conv_output_nd(x, layer.equivalent_kernels(), layer.bias.value)
        assert np.max(np.abs(out - expected)) < MAX_ABS


def test_matches_full_conv_grouped_2p5d():
    rng = np.random.default_rng(34)
    layer = SeparableConv(2, 3, (3, 2, 2), rng=rng, groups=((1, 2), (0,)))
    x = rng.standard_normal((2, 2, 7, 6, 6))
    out = layer.forward(x)
    expected = full_conv_output_nd(x, layer.equivalent_kernels(), layer.bias.value)
    assert np.max(np.abs(out - expected)) < MAX_ABS


def test_equivalent_kernels_are_outer_products():
    rng = np.random.default_rng(35)
    layer = SeparableConv(1, 2, (3, 4), rng=rng)
    full = layer.equivalent_kernels()
    for j in range(2):
        expected = np.outer(layer.stage_kernels[1].value[j], layer.stage_kernels[0].value[j])
        # stage order is last axis first, so stage 0 holds the trailing-axis kernel
        assert np.max(np.abs(full[j] - expected)) < 1e-15


def test_rank1_truncation_residual_identity():
    # Y - Yhat equals the convolution of X with the rank-1 residual R
    rng = np.random.default_rng(36)
    for _ in range(10):
        n_f = int(rng.integers(1, 4))
        kt, kx = (int(e) for e in rng.integers(2, 5, size=2))
        full_kernels = rng.standard_normal((n_f, kt, kx))

        sep = SeparableConv(1, n_f, (kt, kx), rng=rng)
        t_factors = np.zeros((n_f, kt))
        x_factors = np.zeros((n_f, kx))
        for j in range(n_f):
            (left, right), = decompose_2d(full_kernels[j], 1).terms
            t_factors[j] = left
            x_factors[j] = right
        sep.set_stage_kernels([x_factors, t_factors])
        sep.bias.value[...] = 0.0

        x = rng.standard_normal((2, 1, 9, 11))
        y_hat = sep.forward(x)
        y_full = full_conv_output_nd(x, full_kernels, np.zeros(n_f))
        residual = full_kernels - sep.equivalent_kernels()
        gap = full_conv_output_nd(x, residual, np.zeros(n_f))
        assert np.max(np.abs((y_full - y_hat) - gap)) < MAX_ABS


def test_separable_application_of_rank1_kernel():
    # conv with a rank-1 kernel a (x) b == rows convolved with b, then columns with a
    rng = np.random.default_rng(37)
    for _ in range(10):
        a = rng.standard_normal(int(rng.integers(1, 5)))
        b = rng.standard_normal(int(rng.integers(1, 5)))
        x = rng.standard_normal((16, 16))
        full = conv_valid(x, np.outer(a, b))
        rows = np.stack([np.convolve(row, b[::-1], mode="valid") for row in x])
        cols = np.stack(
            [np.convolve(rows[:, j], a[::-1], mode="valid") for j in range(rows.shape[1])],
            axis=1,
        )
        assert np.max(np.abs(full - cols)) < 1e-12
