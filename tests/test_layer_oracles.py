"""Element-wise layers against reference formulas kept here as oracles.

``BatchNorm`` reduces on a ``[batch, channels, rest]`` view and works in
place, so it may differ from the textbook formulas below in the last
bits only.  ``Tanh``'s backward and the unlinked ``Upsample`` must match
their references bit for bit.
"""

import numpy as np
import pytest

from sepconvwave.nn import BatchNorm, Tanh, Upsample

REL = 1e-12


def _rel(a, b) -> float:
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), np.finfo(float).tiny))


def _reference_batchnorm(x, grad, gamma, beta, mean_run, var_run, eps, momentum, training):
    """Output, running statistics, input and gamma/beta gradients, by the textbook formulas."""
    axes = (0,) + tuple(range(2, x.ndim))
    bshape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    if training:
        mean, var = x.mean(axis=axes), x.var(axis=axes)
        mean_run = (1 - momentum) * mean_run + momentum * mean
        var_run = (1 - momentum) * var_run + momentum * var
    else:
        mean, var = mean_run, var_run
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean.reshape(bshape)) * inv_std.reshape(bshape)
    out = gamma.reshape(bshape) * xhat + beta.reshape(bshape)
    dgamma = (grad * xhat).sum(axis=axes)
    dbeta = grad.sum(axis=axes)
    gxhat = grad * gamma.reshape(bshape)
    n = grad.size // x.shape[1]
    a = gxhat.sum(axis=axes, keepdims=True)
    b = (gxhat * xhat).sum(axis=axes, keepdims=True)
    dx = inv_std.reshape(bshape) * (gxhat - a / n - xhat * b / n)
    return out, mean_run, var_run, dx, dgamma, dbeta


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shape", [(25, 14, 6, 8, 8), (25, 14, 6, 12, 12)])
def test_batchnorm_matches_the_reference(shape, training):
    rng = np.random.default_rng(30)
    layer = BatchNorm(shape[1])
    layer.gamma.value[...] = 1.0 + 0.3 * rng.standard_normal(shape[1])
    layer.beta.value[...] = rng.standard_normal(shape[1])
    layer.running_mean = 0.1 * rng.standard_normal(shape[1])
    layer.running_var = 1.0 + 0.2 * rng.random(shape[1])
    x = 0.5 + 2.0 * rng.standard_normal(shape)
    grad = rng.standard_normal(shape)
    out, mean_run, var_run, dx, dgamma, dbeta = _reference_batchnorm(
        x, grad, layer.gamma.value, layer.beta.value, layer.running_mean, layer.running_var,
        layer.eps, layer.momentum, training)

    got = layer.forward(x, training)
    assert got.shape == shape and got.flags.c_contiguous
    assert _rel(got, out) < REL
    assert _rel(layer.running_mean, mean_run) < REL
    assert _rel(layer.running_var, var_run) < REL
    if not training:
        # the eval-mode backward is gone: nothing is cached to run it
        with pytest.raises(RuntimeError):
            layer.backward(grad)
        return
    assert _rel(layer.backward(grad), dx) < REL
    assert _rel(layer.gamma.grad, dgamma) < REL
    assert _rel(layer.beta.grad, dbeta) < REL


def test_tanh_backward_is_the_reference_bit_for_bit():
    rng = np.random.default_rng(31)
    x = 3.0 * rng.standard_normal((25, 14, 6, 8, 8))
    grad = rng.standard_normal(x.shape)
    layer = Tanh()
    out = layer.forward(x, training=True)
    assert np.array_equal(out, np.tanh(x))
    assert layer.backward(grad).tobytes() == (grad * (1 - out**2)).tobytes()


@pytest.mark.parametrize("factor", range(1, 7))
@pytest.mark.parametrize("axis", range(4))
def test_upsample_is_repeat_and_block_sum_bit_for_bit(axis, factor):
    rng = np.random.default_rng(32 + 7 * axis + factor)
    shape = (3, 2, 3, 4, 5)
    factors = tuple(factor if a == axis else 1 + a % 2 for a in range(4))
    layer = Upsample(factors)
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    expected = x
    for ax, f in enumerate(factors, start=1):
        expected = np.repeat(expected, f, axis=ax)
    out = layer.forward(x, training=True)
    assert out.tobytes() == expected.tobytes()

    grad = rng.standard_normal(out.shape) * 10.0 ** rng.uniform(-6, 6, out.shape)
    expected = grad
    for ax, f in enumerate(factors, start=1):
        split = expected.shape[:ax] + (expected.shape[ax] // f, f) + expected.shape[ax + 1:]
        expected = expected.reshape(split).sum(axis=ax + 1)
    assert layer.backward(grad).tobytes() == expected.tobytes()
